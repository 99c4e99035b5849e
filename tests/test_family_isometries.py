"""The isometries that the built-in families carry: ``Space.translation``."""

import math

import numpy as np
import pytest

import designlab as dl
from test_family_spaces import FAMILIES

SMALL = [(make, args) for make, args in FAMILIES if make(*args).n_vertices <= 64]


@pytest.mark.parametrize("make, args", SMALL,
                         ids=[f"{make.__name__}{args}" for make, args in SMALL])
def test_translation_is_an_isometry_taking_y_to_o(make, args):
    space = make(*args)
    n = space.n_vertices
    classes = space.classes
    for o in {0, n // 2, n - 1}:
        for y in range(n):
            perm = space.translation(y, o)
            assert perm[y] == o
            assert np.array_equal(classes[np.ix_(perm, perm)], classes), (y, o)


def test_translations_do_not_build_the_labels():
    space = dl.hamming(8, 2)
    dl.translations_to_origin(space, dl.make_design([0, 3, 255]), origin=5)
    assert callable(vars(space)["labels"])


def test_scheme_file_has_no_built_in_translation(tmp_path):
    path = tmp_path / "j62.txt"
    dl.save_space(dl.johnson(6, 2), str(path))
    space = dl.load_space(str(path))
    assert space.translation is None
    with pytest.raises(ValueError,
                       match="no built-in isometry action for kind 'scheme'"):
        dl.translations_to_origin(space, dl.make_design([0, 14]))


JOHNSON = [(n, w) for n in range(2, 13) for w in range(1, n // 2 + 1)]


@pytest.mark.parametrize("n, w", JOHNSON, ids=[f"J({n},{w})" for n, w in JOHNSON])
def test_johnson_labels_are_in_colex_rank_order(n, w):
    # isometry files and the benchmark's reference number J(n, w) this way:
    # the 1-based subset c_0 < c_1 < ... is vertex sum_k C(c_k - 1, k + 1)
    labels = dl.johnson(n, w).labels
    ranks = [sum(math.comb(c - 1, k + 1) for k, c in enumerate(s)) for s in labels]
    assert ranks == list(range(math.comb(n, w)))
