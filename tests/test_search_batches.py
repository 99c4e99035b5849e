"""The batched design search against the search it replaced.

``min_design_search`` takes the tree one batch of sibling nodes at a time
and prunes most children from their parent's components before forming
them.  ``_reference_search`` below is the search as it was before: one
node per call, every child formed and its full norm taken.  Both must
return the same design and size, and the batched search's estimates must
stay far inside the slack that its prefilter allows.
"""

import math
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab import designs
from designlab.designs import _below
from test_ball_sweep import petersen

TOL = 1e-9


def _reference_search(space, spectral, t, max_size, tol=TOL):
    """(points, size) of the one-node-at-a-time search, or (None, None)."""
    n = space.n_vertices
    active = [j for j in range(1, spectral.n_eigenspaces)
              if _below(spectral.eigenvalues[j], t, tol)]
    if not active:
        return [0], 1
    cols = np.stack([spectral.components(e)[active] for e in np.eye(n)])
    reach = np.linalg.norm(cols, axis=2).max(axis=0)
    firsts = 1 if space.translation is not None else n
    for size in range(1, max_size + 1):
        found = _reference_extend(cols, reach, tol * math.sqrt(size), 0.0, [], size,
                                  firsts)
        if found is not None:
            return found, size
    return None, None


def _reference_extend(cols, reach, tol, partial, chosen, left, stop):
    if left == 0:
        return chosen
    start = chosen[-1] + 1 if chosen else 0
    children = partial + cols[start:min(stop, len(cols) - left + 1)]
    fits = (np.linalg.norm(children, axis=2) <= (left - 1) * reach + tol).all(axis=1)
    for i in np.flatnonzero(fits):
        hit = _reference_extend(cols, reach, tol, children[i], [*chosen, start + int(i)],
                                left - 1, len(cols))
        if hit is not None:
            return hit
    return None


FAMILIES = [*[(f"C({n})", lambda n=n: dl.cycle(n)) for n in range(3, 33)],
            *[(f"H({n},2)", lambda n=n: dl.hamming(n, 2)) for n in range(2, 6)],
            *[(f"H({n},3)", lambda n=n: dl.hamming(n, 3)) for n in range(2, 4)],
            *[(f"J({n},{w})", lambda n=n, w=w: dl.johnson(n, w))
              for n, w in ((5, 2), (6, 2), (6, 3))]]


def _deepest(n):
    """Largest max_size compared with the reference on N vertices.

    The reference walks every node of an exhaustive search; past 16
    vertices its size-6 to size-8 searches take seconds per space, so those
    spaces stop at 5.  ``test_deep_searches_match_the_reference`` covers
    sizes up to 8 on the larger spaces at chosen t.
    """
    return 8 if n <= 16 else 5


@pytest.fixture
def estimate_error(monkeypatch):
    """Largest |carried squared norm - exact squared norm| over every node
    that ``_extend`` is handed, recorded while the test runs."""
    extend = designs._extend
    worst = [0.0]

    def recorded(search, partials, norms2, *rest):
        exact = (partials ** 2).sum(axis=2)
        worst[0] = max(worst[0], float(np.abs(norms2 - exact).max()))
        return extend(search, partials, norms2, *rest)

    monkeypatch.setattr(designs, "_extend", recorded)
    return worst


def _reference_grid(space):
    """The t values of the grid on ``space`` and the reference's answer at
    each, searched up to ``_deepest``: t = 0.3 and every eigenvalue +- 1e-3."""
    spec = dl.spectral_decomposition(space)
    ts = [0.3] + [th + d for th in spec.eigenvalues[1:] for d in (-1e-3, 1e-3)]
    deepest = _deepest(space.n_vertices)
    return ts, [_reference_search(space, spec, t, deepest) for t in ts]


_FAMILY_GRIDS = {}


def _family_grid(name, make):
    """``_reference_grid`` of a family, kept for its scheme-file twin."""
    if name not in _FAMILY_GRIDS:
        _FAMILY_GRIDS[name] = _reference_grid(make())
    return _FAMILY_GRIDS[name]


def _check_grid(space, grid, estimate_error):
    spec = dl.spectral_decomposition(space)
    deepest = _deepest(space.n_vertices)
    for i, (t, (points, size)) in enumerate(zip(*grid)):
        # max_size runs through 1..deepest over consecutive t, and deepest itself
        for max_size in sorted({i % deepest + 1, deepest}):
            want = (points, size) if size is not None and size <= max_size else (None, None)
            d, got_size = dl.min_design_search(space, spec, t, max_size)
            got = (None if d is None else d.points.tolist(), got_size)
            assert got == want, (t, max_size)
    assert estimate_error[0] < 0.01 * designs._SLACK


@pytest.mark.parametrize("name, make", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_family_search_matches_the_reference(name, make, estimate_error):
    _check_grid(make(), _family_grid(name, make), estimate_error)


@pytest.mark.parametrize("name, make", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_scheme_file_search_matches_the_reference(name, make, tmp_path, estimate_error):
    # A scheme file carries no isometries, so the batched search tries every
    # first point.  Its answer is the family's: the family's isometries take
    # the first design to one through vertex 0 (see min_design_search), and
    # tests/test_search.py runs both searches on C(12), H(3,2) and J(5,2).
    # The reference is run on the family only, where it is cheap.
    path = tmp_path / "space.txt"
    dl.save_space(make(), str(path))
    saved = dl.load_space(str(path))
    assert saved.translation is None
    _check_grid(saved, _family_grid(name, make), estimate_error)


def test_petersen_search_matches_the_reference(tmp_path, estimate_error):
    space = petersen(tmp_path / "petersen.txt")
    _check_grid(space, _reference_grid(space), estimate_error)


@pytest.mark.parametrize("spec, t", [
    ("cycle:n=24", 3.0),                    # a regular octagon, size 8
    ("cycle:n=32", 3.9),                    # nothing of size <= 8
    ("cycle:n=30", 3.5),                    # nothing of size <= 8
    ("hamming:n=5,q=2", 6.0),               # size 8
])
def test_deep_searches_match_the_reference(spec, t, estimate_error):
    space = dl.build_named_space(spec)
    spec = dl.spectral_decomposition(space)
    d, size = dl.min_design_search(space, spec, t, 8)
    got = (None if d is None else d.points.tolist(), size)
    assert got == _reference_search(space, spec, t, 8)
    assert estimate_error[0] < 0.01 * designs._SLACK


@pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.1, 0.3])
@pytest.mark.parametrize("spec", ["cycle:n=8", "cycle:n=12", "hamming:n=3,q=2",
                                  "johnson:n=6,w=2"])
def test_coarse_tol_search_matches_the_reference(spec, tol):
    # a coarse tol widens every limit, so whole blocks of children, designs
    # among them, pass on their estimates alone, without the exact test
    space = dl.build_named_space(spec)
    spec = dl.spectral_decomposition(space)
    for t in [0.3] + [th + d for th in spec.eigenvalues[1:] for d in (-1e-3, 1e-3)]:
        d, size = dl.min_design_search(space, spec, t, 4, tol)
        got = (None if d is None else d.points.tolist(), size)
        assert got == _reference_search(space, spec, t, 4, tol), t


@pytest.mark.parametrize("saved", [False, True])
@pytest.mark.parametrize("side, want", [(-1, [0, 4]), (1, [0, 3])])
def test_children_within_the_slack_take_the_exact_test(side, want, saved, tmp_path):
    # On C(8) at t = 1 only E_1 is active, and ||E_1 1_{0,3}||^2 =
    # (2 - sqrt 2)/4 is the smallest nonzero one over pairs.  A tol that puts
    # the size-2 leaf limit 2e-10 below or above it, inside the prefilter's
    # slack, leaves {0, 3} to the exact test alone: below, the first design
    # is the antipodal pair {0, 4}.
    space = dl.cycle(8)
    if saved:
        dl.save_space(space, str(tmp_path / "c8.txt"))
        space = dl.load_space(str(tmp_path / "c8.txt"))
    spec = dl.spectral_decomposition(space)
    tol = math.sqrt(((2 - math.sqrt(2)) / 4 + side * 2e-10) / 2)
    d, size = dl.min_design_search(space, spec, 1.0, 2, tol)
    assert (d.points.tolist(), size) == (want, 2)
    assert _reference_search(space, spec, 1.0, 2, tol) == (want, 2)


@pytest.mark.parametrize("spec, t", [("cycle:n=32", 3.9), ("hamming:n=5,q=2", 6.0)])
def test_search_memory_stays_under_8_mib(spec, t):
    space = dl.build_named_space(spec)
    spec = dl.spectral_decomposition(space)
    spec.components(np.eye(1, space.n_vertices)[0])     # the class matrix, built untraced
    tracemalloc.start()
    try:
        dl.min_design_search(space, spec, t, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("spec", ["cycle:n=24", "hamming:n=3,q=3", "johnson:n=6,w=3",
                                  "petersen"])
def test_components_of_unit_vectors_equal_lone_calls(spec, tmp_path):
    # the search reads every column E_j e_x from one stacked call
    space = (petersen(tmp_path / "petersen.txt") if spec == "petersen"
             else dl.build_named_space(spec))
    spec = dl.spectral_decomposition(space)
    eye = np.eye(space.n_vertices)
    stacked = spec.components(eye)
    assert stacked.shape == (space.n_vertices, spec.n_eigenspaces, space.n_vertices)
    assert np.array_equal(stacked, np.stack([spec.components(e) for e in eye]))
    rng = np.random.default_rng(7)
    funcs = rng.random((3, space.n_vertices)) * (rng.random((3, space.n_vertices)) < 0.5)
    np.testing.assert_allclose(spec.components(funcs),
                               np.stack([spec.components(f) for f in funcs]),
                               rtol=0, atol=1e-12)
