import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlab as dl
from conftest import even_weight_code
from designlab.spectra import ball_eigenvalues

TOL = 1e-9


def test_laplacian_kernel(h32):
    assert np.allclose(dl.laplacian_apply(h32, np.ones(8)), 0, atol=TOL)


def test_laplacian_delta(c4):
    out = dl.laplacian_apply(c4, [1, 0, 0, 0])
    assert np.allclose(out, [2, -1, 0, -1], atol=TOL)


def test_laplacian_parity_vector(h32):
    words = np.array(h32.labels)
    f = (-1.0) ** words.sum(axis=1)
    assert np.allclose(dl.laplacian_apply(h32, f), 6 * f, atol=TOL)


def test_dirichlet_form_examples(c4, h32):
    assert dl.dirichlet_form(c4, np.ones(4)) == pytest.approx(0, abs=TOL)
    assert dl.dirichlet_form(c4, [1, 0, 0, 0]) == pytest.approx(2, abs=TOL)
    ind = np.zeros(8)
    ind[even_weight_code(h32)] = 1.0
    assert dl.dirichlet_form(h32, ind) == pytest.approx(12, abs=TOL)


def test_dirichlet_form_edge_sum_crosscheck(j73):
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.normal(size=j73.n_vertices)
        assert dl.dirichlet_form(j73, f) == pytest.approx(
            dl.dirichlet_form_edges(j73, f), rel=1e-12, abs=TOL)


# ---------------------------------------------------------------------------
# dense subset eigenvalues


def test_single_vertex(h32):
    eig = dl.subset_eigen(h32, [5])
    assert eig.value == pytest.approx(3, abs=TOL)
    assert eig.eigenfunction[5] == pytest.approx(1, abs=TOL)


def test_hamming_ball_one(h32):
    eig = dl.subset_eigen(h32, h32.ball(0, 1))
    # oracle: 4x4 restriction [[3,-1,-1,-1],[-1,3,0,0],[-1,0,3,0],[-1,0,0,3]]
    oracle = np.linalg.eigvalsh(np.array([
        [3, -1, -1, -1], [-1, 3, 0, 0], [-1, 0, 3, 0], [-1, 0, 0, 3],
    ]))[0]
    assert eig.value == pytest.approx(oracle, abs=TOL)
    assert eig.value == pytest.approx(3 - math.sqrt(3), abs=TOL)


def test_cycle_path(c4):
    eig = dl.subset_eigen(c4, [3, 0, 1])
    # tridiagonal oracle: 2 - 2 cos(pi/4)
    assert eig.value == pytest.approx(2 - math.sqrt(2), abs=TOL)


def test_empty_subset(c4):
    with pytest.raises(ValueError):
        dl.subset_eigen(c4, [])


def test_full_set_and_bounds(h32):
    rng = np.random.default_rng(5)
    assert dl.subset_eigen(h32, range(8)).value == pytest.approx(0, abs=TOL)
    for _ in range(10):
        size = rng.integers(1, 9)
        omega = rng.choice(8, size=size, replace=False)
        lam = dl.subset_eigen(h32, omega).value
        assert -TOL <= lam <= 3 + TOL


def test_monotonicity(h32):
    rng = np.random.default_rng(9)
    for _ in range(10):
        size = rng.integers(1, 8)
        omega = sorted(rng.choice(8, size=size, replace=False))
        extra = rng.choice([v for v in range(8) if v not in omega])
        lam_small = dl.subset_eigen(h32, omega).value
        lam_big = dl.subset_eigen(h32, list(omega) + [int(extra)]).value
        assert lam_small >= lam_big - TOL


def test_eigenfunction_certificate(j73):
    # psi >= 0, unit norm, supported on omega, and (Lap psi)(x) <= lam psi(x)
    # on omega; Rayleigh identity ties the pieces together
    rng = np.random.default_rng(13)
    for _ in range(5):
        size = rng.integers(1, 20)
        omega = np.unique(rng.choice(j73.n_vertices, size=size, replace=False))
        eig = dl.subset_eigen(j73, omega)
        psi = eig.eigenfunction
        assert psi.min() >= -TOL
        assert np.linalg.norm(psi) == pytest.approx(1, abs=TOL)
        outside = np.setdiff1d(np.arange(j73.n_vertices), omega)
        assert np.abs(psi[outside]).max(initial=0) == 0
        assert dl.dirichlet_form(j73, psi) == pytest.approx(eig.value, abs=1e-8)
        lap_psi = dl.laplacian_apply(j73, psi)
        assert (lap_psi[omega] <= eig.value * psi[omega] + 1e-8).all()


def test_reducible_tie_breaks_to_lowest_vertex():
    c6 = dl.cycle(6)
    eig = dl.subset_eigen(c6, [0, 3])       # two singleton blocks, both lam=2
    assert eig.value == pytest.approx(2, abs=TOL)
    assert eig.eigenfunction[0] == pytest.approx(1, abs=TOL)
    assert eig.eigenfunction[3] == 0


# ---------------------------------------------------------------------------
# quotient route


def test_quotient_hamming3(h32):
    eig = dl.spherical_subset_eigen(h32, 0, [0, 1])
    assert eig.value == pytest.approx(3 - math.sqrt(3), abs=TOL)
    sym, _ = dl.quotient_matrix(h32, [0, 1])
    assert np.allclose(sym, [[3, -math.sqrt(3)], [-math.sqrt(3), 3]], atol=TOL)


def test_quotient_hamming8(h82):
    eig = dl.spherical_subset_eigen(h82, 0, [0, 1])
    assert eig.value == pytest.approx(8 - 2 * math.sqrt(2), abs=TOL)


def test_quotient_all_classes_is_zero(j73):
    eig = dl.spherical_subset_eigen(j73, 0, range(4))
    assert eig.value == pytest.approx(0, abs=TOL)


def test_quotient_requires_intersection_numbers(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("graph 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n")
    g = dl.load_space(str(path))
    with pytest.raises(ValueError, match="intersection numbers"):
        dl.spherical_subset_eigen(g, 0, [0, 1])


@pytest.mark.parametrize("space_fn", [
    lambda: dl.hamming(3, 2),
    lambda: dl.hamming(5, 2),
    lambda: dl.hamming(6, 2),
    lambda: dl.johnson(6, 3),
    lambda: dl.cycle(12),
])
def test_quotient_matches_dense_on_balls(space_fn):
    space = space_fn()
    for radius in range(space.n_classes + 1):
        quot = dl.spherical_subset_eigen(space, 0, range(radius + 1))
        dense = dl.subset_eigen(space, space.ball(0, radius))
        assert quot.value == pytest.approx(dense.value, abs=TOL)
        # spherical eigenfunction is a valid dense minimiser as well
        assert dl.dirichlet_form(space, quot.eigenfunction) == pytest.approx(
            dense.value, abs=1e-8)


def test_quotient_nonball_sphere_set(h82):
    # an annulus {1,2} exercises the Dirichlet drop of class 0
    quot = dl.spherical_subset_eigen(h82, 0, [1, 2])
    omega = np.flatnonzero(np.isin(h82.classes[0], [1, 2]))
    dense = dl.subset_eigen(h82, omega)
    assert quot.value == pytest.approx(dense.value, abs=TOL)


PROPERTY_SPACES = {
    "H(3,2)": (dl.hamming, 3, 2), "H(4,3)": (dl.hamming, 4, 3),
    "H(5,2)": (dl.hamming, 5, 2), "J(7,3)": (dl.johnson, 7, 3),
    "J(8,4)": (dl.johnson, 8, 4), "C(9)": (dl.cycle, 9), "C(12)": (dl.cycle, 12),
    "H(4,3) r=2": (dl.hamming, 4, 3, 2), "J(8,4) r=2": (dl.johnson, 8, 4, 2),
}


@functools.lru_cache(maxsize=None)
def _property_space(name):
    build, *args = PROPERTY_SPACES[name]
    return build(*args)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_matches_dense_on_random_sphere_sets(data):
    space = _property_space(data.draw(st.sampled_from(sorted(PROPERTY_SPACES))))
    origin = data.draw(st.integers(0, space.n_vertices - 1))
    spheres = data.draw(st.sets(st.integers(0, space.n_classes), min_size=1))
    quot = dl.spherical_subset_eigen(space, origin, spheres)
    omega = np.flatnonzero(np.isin(space.classes[origin], sorted(spheres)))
    dense = dl.subset_eigen(space, omega)
    assert len(quot.omega) == len(dense.omega)
    assert quot.value == pytest.approx(dense.value, abs=TOL)


def test_load_subset(tmp_path):
    path = tmp_path / "omega.txt"
    path.write_text("3\n1\n3\n# comment\n2\n")
    assert list(dl.load_subset(str(path))) == [1, 2, 3]


def test_whole_space_eigenvalue_is_clamped_to_zero():
    # eigensolver noise just below 0 on the whole space is returned as 0.0,
    # by the quotient route of the ball sweep and by dense restriction
    for space in (dl.hamming(8, 2), dl.cycle(40)):
        lams, _ = ball_eigenvalues(space, 0)
        assert lams[-1] == 0.0
        assert dl.subset_eigen(space, range(space.n_vertices)).value == 0.0


def test_dense_route_builds_no_n_by_n_laplacian():
    # with the class matrix already read, the 1024 x 1024 float Laplacian
    # alone would be 8 MB; ball 1 of H(10,2) needs an 11 x 11 block
    space = dl.hamming(10, 2)
    ball = space.ball(0, 1)
    dl.subset_eigen(dl.cycle(5), [0, 1])     # one-time lazy imports, about 1 MB
    tracemalloc.start()
    try:
        eig = dl.subset_eigen(space, ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.value == pytest.approx(10 - math.sqrt(10), abs=TOL)
    assert peak < 2 ** 20


@pytest.mark.parametrize("space", [dl.hamming(8, 2), dl.johnson(10, 4)],
                         ids=["H(8,2)", "J(10,4)"])
def test_laplacian_is_the_per_vertex_neighbour_sum(space):
    # bit for bit degree f(x) minus the sum of f over x's ascending class-r
    # partners, and within rounding of the dense product
    rng = np.random.default_rng(3)
    classes, r, degree = space.classes, space.laplacian_class, space.degree
    adj = space.adjacency(r)
    for _ in range(5):
        f = rng.standard_normal(space.n_vertices)
        out = dl.laplacian_apply(space, f)
        for x in range(space.n_vertices):
            assert out[x] == degree * f[x] - f[np.flatnonzero(classes[x] == r)].sum()
        dense = degree * f - adj @ f
        assert np.abs(out - dense).max() <= 1e-12 * degree * np.abs(f).max()


def test_dirichlet_form_builds_no_n_by_n_adjacency():
    # the 2048 x 2048 float adjacency of H(11,2) alone would be 32 MB
    space = dl.hamming(11, 2)
    space.classes                                   # read before tracing
    f = np.random.default_rng(4).standard_normal(space.n_vertices)
    dl.dirichlet_form(dl.cycle(5), np.ones(5))      # one-time lazy imports
    tracemalloc.start()
    try:
        energy = dl.dirichlet_form(space, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energy == pytest.approx(dl.dirichlet_form_edges(space, f), rel=1e-9)
    assert peak < 16 * 2 ** 20
