"""min_design_search against brute-force enumeration with the projectors.

The search takes E_j e_x from ``components``; the oracle here multiplies
the (k, N, N) projectors by every candidate indicator, smallest size first
and each size in lexicographic order.
"""

import itertools

import numpy as np
import pytest

import designlab as dl
from test_ball_sweep import petersen

TOL = 1e-9
MAX_SIZE = 6


def first_design(space, spec, t, max_size=MAX_SIZE, tol=TOL):
    """Lexicographically first smallest subset of strength t, or None."""
    n = space.n_vertices
    active = [j for j in range(1, spec.n_eigenspaces)
              if spec.eigenvalues[j] < t - tol * max(1.0, t)]
    for size in range(1, max_size + 1):
        subsets = np.array(list(itertools.combinations(range(n), size)))
        ind = np.zeros((len(subsets), n))
        np.put_along_axis(ind, subsets, 1.0, axis=1)
        res = np.linalg.norm(spec.projectors[active] @ ind.T, axis=1)   # (a, S)
        ok = np.flatnonzero((res <= tol * np.sqrt(size)).all(axis=0))
        if len(ok):
            return subsets[ok[0]].tolist(), size
    return None, None


@pytest.mark.parametrize("make", [
    *[lambda _, n=n: dl.cycle(n) for n in range(3, 11)],
    lambda _: dl.hamming(3, 2),
    lambda _: dl.hamming(2, 3),
    lambda _: dl.johnson(5, 2),
    petersen,
])
def test_search_is_first_design_by_brute_force(make, tmp_path):
    space = make(tmp_path / "space.txt")
    spec = dl.spectral_decomposition(space)
    ts = [0.3] + [th + d for th in spec.eigenvalues[1:] for d in (-1e-3, 1e-3)]
    for t in ts:
        d, size = dl.min_design_search(space, spec, t, MAX_SIZE)
        got = (None if d is None else d.points.tolist(), size)
        assert got == first_design(space, spec, t), t


@pytest.mark.parametrize("make", [lambda _: dl.cycle(6), petersen])
def test_search_does_not_build_projectors(make, tmp_path):
    space = make(tmp_path / "space.txt")
    spec = dl.spectral_decomposition(space)
    d, size = dl.min_design_search(space, spec, spec.eigenvalues[1] + 1e-3, 4)
    assert size is not None
    assert "projectors" not in vars(spec)


@pytest.mark.parametrize("make", [lambda: dl.cycle(12), lambda: dl.hamming(3, 2),
                                  lambda: dl.johnson(5, 2)])
def test_search_through_vertex_0_matches_the_full_search(make, tmp_path):
    # a scheme file carries no isometries, so it takes the full search
    space = make()
    path = tmp_path / "space.txt"
    dl.save_space(space, str(path))
    saved = dl.load_space(str(path))
    assert space.translation is not None and saved.translation is None
    spec, saved_spec = dl.spectral_decomposition(space), dl.spectral_decomposition(saved)
    ts = [0.3] + [th + d for th in spec.eigenvalues[1:] for d in (-1e-3, 1e-3)]
    for t in ts:
        for max_size in (4, 8):
            got = []
            for sp, sd in ((space, spec), (saved, saved_spec)):
                d, size = dl.min_design_search(sp, sd, t, max_size)
                got.append((None if d is None else d.points.tolist(), size))
            assert got[0] == got[1], t


def test_search_on_a_family_extends_from_vertex_0_only(tmp_path, monkeypatch):
    space = dl.cycle(24)
    path = tmp_path / "c24.txt"
    dl.save_space(space, str(path))
    saved = dl.load_space(str(path))
    extend = dl.designs._extend
    calls = []

    def counted(*args):
        calls[-1] += 1
        return extend(*args)

    monkeypatch.setattr(dl.designs, "_extend", counted)
    found = []
    for sp in (space, saved):
        calls.append(0)
        d, size = dl.min_design_search(sp, dl.spectral_decomposition(sp), 3.0, 8)
        found.append((d.points.tolist(), size))
    assert found[0] == found[1]
    assert found[0][0][0] == 0
    assert calls[0] < calls[1]
