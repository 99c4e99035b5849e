"""Built-in translations against a per-label reference."""

import math

import numpy as np
import pytest

import designlab as dl
from conftest import FANO_BLOCKS


def johnson_translations_by_label(space, design, origin):
    """The order-preserving swap of y's and the origin's symmetric
    difference, applied to each label and looked up by rank."""
    labels = space.labels
    rank = {s: v for v, s in enumerate(labels)}
    o_set = set(labels[origin])
    ground = set().union(*labels)
    perms = np.empty((len(design.points), len(labels)), dtype=int)
    for i, y in enumerate(design.points):
        y_set = set(labels[y])
        sigma = {e: e for e in ground}
        for a, b in zip(sorted(y_set - o_set), sorted(o_set - y_set)):
            sigma[a], sigma[b] = b, a
        for v, s in enumerate(labels):
            perms[i, v] = rank[tuple(sorted(sigma[e] for e in s))]
    return perms


JOHNSON = [(n, w) for n in range(2, 13) for w in range(1, n // 2 + 1)]


@pytest.mark.parametrize("n, w", JOHNSON, ids=[f"J({n},{w})" for n, w in JOHNSON])
def test_johnson_translations_match_the_per_label_reference(n, w):
    space = dl.johnson(n, w)
    size = math.comb(n, w)
    rng = np.random.default_rng(n * 100 + w)
    designs = [range(0, size, max(1, size // 20)),
               rng.choice(size, min(size, 5), replace=False)]
    if (n, w) == (7, 3):
        designs.append([space.labels.index(b) for b in FANO_BLOCKS])
    for points in designs:
        design = dl.make_design(points)
        for origin in {0, size - 1, int(rng.integers(size))}:
            got = dl.translations_to_origin(space, design, origin).permutations
            want = johnson_translations_by_label(space, design, origin)
            assert np.array_equal(got, want), (points, origin)
