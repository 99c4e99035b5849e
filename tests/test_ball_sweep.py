"""The cached ball sweep of design_bound_auto against the per-radius route.

design_bound_auto reads every ball's Dirichlet eigenvalue and volume from
``spectra.ball_eigenvalues(space, origin, tol)``, built once per origin and
tol and kept on the space; design_bound solves one ball at a time.  Both
must give the same numbers bit for bit.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlab as dl

TOL = 1e-9


def petersen(path):
    pairs = list(itertools.combinations(range(5), 2))
    edges = [(a, b) for a, b in itertools.combinations(range(10), 2)
             if not set(pairs[a]) & set(pairs[b])]
    path.write_text("graph 10\n" + "".join(f"edge {a} {b}\n" for a, b in edges))
    return dl.load_space(str(path))


def cube8(path):
    edges = np.argwhere(np.triu(dl.hamming(8, 2).classes == 1))
    path.write_text("graph 256\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
    return dl.load_space(str(path))


def sweep_ts(spectral, lams):
    """t below, on and next to Laplacian and ball eigenvalues, and above."""
    ts = [0.05]
    for value in list(spectral.eigenvalues[1:3]) + list(lams[1:3]):
        value = float(value)
        if value > 0:
            ts += [value, np.nextafter(value, 0.0), np.nextafter(value, np.inf)]
    return ts + [float(spectral.eigenvalues[-1]) + 1.0]


def assert_sweep_matches_per_radius(space, origin=0):
    spectral = dl.spectral_decomposition(space, origin)
    for tol in (TOL, 1e-6):       # the second differs from spectral_decomposition's
        lams, _ = dl.spectra.ball_eigenvalues(space, origin, tol)
        for t in sweep_ts(spectral, lams):
            reports, best = dl.design_bound_auto(space, spectral, t, tol)
            assert len(reports) == space.n_classes + 1
            expected_best = None
            for radius, rep in enumerate(reports):
                ref = dl.design_bound(space, spectral, t,
                                      spheres=range(radius + 1), tol=tol)
                got = (rep.t, rep.lam, rep.vol_omega, rep.vol_space, rep.bound,
                       rep.vacuous)
                want = (ref.t, ref.lam, ref.vol_omega, ref.vol_space, ref.bound,
                        ref.vacuous)
                assert got == want, (space.kind, tol, t, radius)
                assert [type(x) for x in got] == [type(x) for x in want]
                assert rep.omega == f"ball {radius}"
                assert rep.subset_eig is None
                if not ref.vacuous and (expected_best is None
                                        or ref.bound > expected_best[1] + tol):
                    expected_best = (radius, ref.bound)
            if expected_best is None:
                assert best is None
            else:
                assert (best.omega, best.bound) == (f"ball {expected_best[0]}",
                                                    expected_best[1])


@pytest.mark.parametrize("space_fn", [
    lambda: dl.hamming(8, 2),
    lambda: dl.hamming(6, 3),
    lambda: dl.johnson(12, 5),
    lambda: dl.cycle(128),
    # relations that are not P-polynomial: merged eigenspaces, reducible balls
    lambda: dl.hamming(4, 3, laplacian_class=2),
    lambda: dl.hamming(5, 2, laplacian_class=3),
    lambda: dl.johnson(8, 4, laplacian_class=2),
])
def test_sweep_matches_per_radius_on_builtins(space_fn):
    assert_sweep_matches_per_radius(space_fn())


def test_sweep_matches_per_radius_away_from_vertex_0():
    assert_sweep_matches_per_radius(dl.johnson(9, 4), origin=57)


@pytest.mark.parametrize("make", [petersen, cube8])
def test_sweep_matches_per_radius_on_graph_files(make, tmp_path):
    space = make(tmp_path / "graph.txt")
    assert space.kind == "graph" and space.intersection_numbers is None
    assert_sweep_matches_per_radius(space)
    assert_sweep_matches_per_radius(space, origin=5)


def test_ball_eigen_is_kept_per_tol():
    space = dl.cycle(20)
    first = dl.spectra.ball_eigenvalues(space, 0, TOL)
    assert dl.spectra.ball_eigenvalues(space, 0, TOL) is first
    assert dl.spectra.ball_eigenvalues(space, 0, 1e-6) is not first
    lams, vols = first
    assert list(vols) == [1] + [2 * r + 1 for r in range(1, 10)] + [20]
    assert lams[-1] == pytest.approx(0.0, abs=TOL)


def test_coarse_tol_splits_ball_quotients_as_per_radius():
    # at tol 0.3 the quotient entries below 0.3 * degree no longer couple
    # spheres, so the ball eigenvalues differ from those at TOL
    space = dl.hamming(4, 3, laplacian_class=2)
    spectral = dl.spectral_decomposition(space)
    fine, coarse = (dl.spectra.ball_eigenvalues(space, 0, tol)[0] for tol in (TOL, 0.3))
    assert fine != coarse
    for tol, lams in [(TOL, fine), (0.3, coarse)]:
        assert list(lams) == [
            dl.design_bound(space, spectral, 1.0, spheres=range(r + 1), tol=tol).lam
            for r in range(space.n_classes + 1)]


def test_empty_class_raises_as_before(tmp_path):
    # C6 written as a 4-class scheme: class 4 never occurs
    c6 = dl.cycle(6)
    path = tmp_path / "c6.txt"
    path.write_text("scheme 6 4\n" + "".join(
        f"rel {u} {v} {c6.classes[u, v]}\n"
        for u, v in itertools.combinations(range(6), 2)))
    space = dl.load_space(str(path))
    spectral = dl.spectral_decomposition(space)
    with pytest.raises(ValueError, match="sphere 4 is empty"):
        dl.design_bound(space, spectral, 1.0, spheres=range(5))
    for _ in range(2):                    # a failed build is not cached
        with pytest.raises(ValueError, match="sphere 4 is empty"):
            dl.design_bound_auto(space, spectral, 1.0)


def test_sweep_rejects_non_positive_t():
    space = dl.hamming(3, 2)
    spectral = dl.spectral_decomposition(space)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t must be positive"):
            dl.design_bound_auto(space, spectral, t)


# ---------------------------------------------------------------------------
# the bound never exceeds the smallest design (criterion 4, at drawn t)

SMALL_SPACES = {
    **{f"C({n})": functools.partial(dl.cycle, n) for n in range(3, 13)},
    "H(3,2)": functools.partial(dl.hamming, 3, 2),
    "H(4,2)": functools.partial(dl.hamming, 4, 2),
    "J(5,2)": functools.partial(dl.johnson, 5, 2),
    "J(6,2)": functools.partial(dl.johnson, 6, 2),
}


@functools.lru_cache(maxsize=None)
def _small(name):
    space = SMALL_SPACES[name]()
    return space, dl.spectral_decomposition(space)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SMALL_SPACES)),
       frac=st.floats(min_value=0.01, max_value=1.1))
def test_best_bound_never_exceeds_smallest_design(name, frac):
    space, spectral = _small(name)
    assert space.n_vertices <= 16
    t = frac * float(spectral.eigenvalues[-1])
    _, best = dl.design_bound_auto(space, spectral, t)
    _, size = dl.min_design_search(space, spectral, t, 8)
    if best is not None and size is not None:
        assert best.bound <= size + TOL, (name, t, best.omega, size)
