"""The tridiagonal route for ball quotients, and Bessel zeros from the
half-size even part of T^2.

``spectra._leading_block_minima`` returns the smallest eigenvalue of every
leading block of a positive semidefinite tridiagonal matrix in one Newton
solve.  It is checked against ``eigvalsh`` of each block, and the route
rule against ``_quotient_eigen``: a quotient that is tridiagonal with every
coupling above the split threshold takes the Newton solve, any other keeps
the per-block eigensolve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlab as dl
from designlab import spectra
from designlab.spaces import quotient_matrix

TOL = 1e-9

# the benchmark's bound-ladder and certify-files families
BENCH_FAMILIES = {
    "H(8,2)": lambda: dl.hamming(8, 2),
    "H(10,2)": lambda: dl.hamming(10, 2),
    "H(6,3)": lambda: dl.hamming(6, 3),
    "J(12,5)": lambda: dl.johnson(12, 5),
    "C(128)": lambda: dl.cycle(128),
    "C(192)": lambda: dl.cycle(192),
    "C(96)": lambda: dl.cycle(96),
    "H(7,2)": lambda: dl.hamming(7, 2),
    "J(10,4)": lambda: dl.johnson(10, 4),
    "H(5,3)": lambda: dl.hamming(5, 3),
}

# quotients that are not one tridiagonal block: relations that are not
# distance-regular, and a coarse tol that splits a metric scheme's ball
SPLIT_CASES = {
    "H(4,3) relation 2": (lambda: dl.hamming(4, 3, laplacian_class=2), TOL),
    "H(5,2) relation 3": (lambda: dl.hamming(5, 2, laplacian_class=3), TOL),
    "J(8,4) relation 2": (lambda: dl.johnson(8, 4, laplacian_class=2), TOL),
    "J(8,4) at tol 0.3": (lambda: dl.johnson(8, 4), 0.3),
}


def block_minima(matrix):
    """eigvalsh of every leading block: the reference."""
    return np.array([np.linalg.eigvalsh(matrix[:r + 1, :r + 1])[0]
                     for r in range(len(matrix))])


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _diagonals(matrix):
    """Diagonal and couplings from the lower triangle, which eigvalsh reads."""
    return np.diagonal(matrix).copy(), np.diagonal(matrix, -1).copy()


def assert_minima_match(matrix):
    got = spectra._leading_block_minima(*_diagonals(matrix))
    scale = max(1.0, np.linalg.norm(matrix, 2))
    assert np.abs(got - block_minima(matrix)).max() <= 1e-12 * scale


def drg_quotient(b, c):
    """Symmetrised ball quotient of a distance-regular graph from its
    intersection array {b_0..b_{d-1}; c_1..c_d}: diagonal k - a_i = b_i + c_i,
    couplings -sqrt(b_i c_{i+1})."""
    b, c = np.array(b, dtype=float), np.array(c, dtype=float)
    return tridiagonal(np.r_[b, 0.0] + np.r_[0.0, c], -np.sqrt(b * c))


C1024 = ([2] + [1] * 511, [1] * 511 + [2])


def leading_tridiagonal(sym, tol, degree):
    """Size of the largest leading block that is tridiagonal with every
    coupling above tol * max(1, degree), block by block."""
    size = 1
    for r in range(1, len(sym)):
        block = sym[:r + 1, :r + 1]
        couplings = np.abs(np.diagonal(block, 1)) > tol * max(1.0, degree)
        if np.triu(block, 2).any() or not couplings.all():
            break
        size = r + 1
    return size


# ---------------------------------------------------------------------------
# the Newton solve against eigvalsh


@pytest.mark.parametrize("name", sorted(BENCH_FAMILIES))
def test_bench_family_balls_match_eigvalsh(name):
    space = BENCH_FAMILIES[name]()
    sym, _ = quotient_matrix(space, range(space.n_classes + 1))
    assert leading_tridiagonal(sym, TOL, space.degree) == len(sym)
    assert_minima_match(sym)
    ref = block_minima(sym)
    for origin in (0, space.n_vertices // 3):
        lams, _ = spectra.ball_eigenvalues(space, origin)
        scale = max(1.0, np.linalg.norm(sym, 2))
        assert np.abs(np.array(lams) - ref).max() <= 1e-12 * scale, origin


def test_intersection_array_quotient_is_the_ball_quotient():
    # the construction used below for C(1024), whose p table is 1 GiB
    for space, b, c in [(dl.cycle(128), [2] + [1] * 63, [1] * 63 + [2]),
                        (dl.hamming(8, 2), list(range(8, 0, -1)), list(range(1, 9)))]:
        sym, _ = quotient_matrix(space, range(space.n_classes + 1))
        np.testing.assert_allclose(drg_quotient(b, c), sym, rtol=1e-14, atol=1e-14)


def test_large_quotients_match_eigvalsh():
    assert_minima_match(drg_quotient(*C1024))
    h12 = dl.hamming(12, 2)
    assert_minima_match(quotient_matrix(h12, range(13))[0])


@st.composite
def psd_tridiagonals(draw):
    """A positive semidefinite tridiagonal matrix of size 1..80 as (diag, off).

    "zero": a weighted path Laplacian with integer weights, whose full
    matrix has smallest eigenvalue exactly 0; "tiny" and "large" shift it by
    1e-14..1e-8 and 1..1e6; "weak" makes some couplings just above the split
    threshold 1e-9 * degree of a quotient of that degree.
    """
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["zero", "tiny", "large", "weak"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.integers(1, 2 ** 20, n - 1).astype(float)
    if kind == "weak":
        degree = float(weights.max(initial=1.0))
        weak = rng.random(n - 1) < 0.5
        weights[weak] = TOL * degree * (1 + rng.uniform(1e-6, 1e-2, weak.sum()))
    diag = np.r_[0.0, weights] + np.r_[weights, 0.0]
    diag += {"zero": 0.0, "tiny": 10 ** rng.uniform(-14, -8),
             "large": 10 ** rng.uniform(0, 6), "weak": 0.0}[kind]
    return diag, -weights


@settings(max_examples=300, deadline=None)
@given(psd_tridiagonals())
def test_drawn_psd_tridiagonals_match_eigvalsh(matrix):
    assert_minima_match(tridiagonal(*matrix))


@settings(max_examples=50, deadline=None)
@given(psd_tridiagonals(), st.data())
def test_a_block_does_not_depend_on_the_batch(matrix, data):
    diag, off = matrix
    r = data.draw(st.integers(0, len(diag) - 1))
    whole = spectra._leading_block_minima(diag, off)
    alone = spectra._leading_block_minima(diag[:r + 1], off[:r])
    assert np.array_equal(whole[:r + 1], alone)


def test_whole_space_ball_is_exactly_zero():
    for name, make in BENCH_FAMILIES.items():
        lams, _ = spectra.ball_eigenvalues(make(), 0)
        assert lams[-1] == 0.0 and type(lams[-1]) is float, name
        assert all(lam > 0 for lam in lams[:-1]), name


def test_ball_quotients_converge_in_twelve_steps(monkeypatch):
    # 6-9 Newton steps on every family here; the eigvalsh fallback is never taken
    def refuse(*args):
        raise AssertionError("fell back to eigvalsh")
    monkeypatch.setattr(spectra, "_NEWTON_STEPS", 12)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for make in BENCH_FAMILIES.values():
        space = make()
        sym, _ = quotient_matrix(space, range(space.n_classes + 1))
        spectra._leading_block_minima(*_diagonals(sym))
    spectra._leading_block_minima(*_diagonals(drg_quotient(*C1024)))


def test_iteration_cap_hands_rising_blocks_to_eigvalsh(monkeypatch):
    sym, _ = quotient_matrix(dl.cycle(40), range(21))
    diag, off = _diagonals(sym)
    exact = block_minima(sym)
    monkeypatch.setattr(spectra, "_NEWTON_STEPS", 0)
    assert np.array_equal(spectra._leading_block_minima(diag, off), exact)
    # after 3 steps some blocks have stopped and the others fall back
    fallbacks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda block: fallbacks.append(len(block)) or eigvalsh(block))
    monkeypatch.setattr(spectra, "_NEWTON_STEPS", 3)
    got = spectra._leading_block_minima(diag, off)
    assert 0 < len(fallbacks) < len(diag)
    assert np.abs(got - exact).max() <= 1e-12 * 4


# ---------------------------------------------------------------------------
# route choice


def _record_routes(monkeypatch):
    calls = {"newton": [], "per_block": []}
    minima, per_block = spectra._leading_block_minima, spectra._quotient_eigen

    def newton(diag, off):
        calls["newton"].append(len(diag))
        return minima(diag, off)

    def quotient(space, sym, tol):
        calls["per_block"].append(len(sym))
        return per_block(space, sym, tol)

    monkeypatch.setattr(spectra, "_leading_block_minima", newton)
    monkeypatch.setattr(spectra, "_quotient_eigen", quotient)
    return calls


@pytest.mark.parametrize("name", ["H(8,2)", "J(12,5)", "C(192)", "H(6,3)"])
def test_tridiagonal_quotients_take_the_newton_solve(monkeypatch, name):
    space = BENCH_FAMILIES[name]()
    calls = _record_routes(monkeypatch)
    spectra.ball_eigenvalues(space, 0)
    assert calls == {"newton": [space.n_classes + 1], "per_block": []}
    for radius in (0, 1, space.n_classes):
        calls["newton"].clear()
        spectra.spherical_subset_eigen(space, 0, range(radius + 1))
        assert calls == {"newton": [radius + 1], "per_block": []}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_quotients_keep_the_per_block_eigensolve(monkeypatch, name):
    make, tol = SPLIT_CASES[name]
    space = make()
    m = space.n_classes
    sym, _ = quotient_matrix(space, range(m + 1))
    size = leading_tridiagonal(sym, tol, space.degree)
    assert size < m + 1
    calls = _record_routes(monkeypatch)
    spectra.ball_eigenvalues(space, 0, tol)
    assert calls == {"newton": [size], "per_block": list(range(size + 1, m + 2))}
    for radius in range(m + 1):
        calls["newton"].clear()
        calls["per_block"].clear()
        spectra.spherical_subset_eigen(space, 0, range(radius + 1), tol)
        tridiagonal_ball = radius < size
        assert calls == {"newton": [radius + 1] if tridiagonal_ball else [],
                         "per_block": [] if tridiagonal_ball else [radius + 1]}


def test_graph_files_keep_the_dense_route(monkeypatch, tmp_path):
    path = tmp_path / "c12.txt"
    path.write_text("graph 12\n" + "".join(f"edge {v} {(v + 1) % 12}\n"
                                            for v in range(12)))
    space = dl.load_space(str(path))
    calls = _record_routes(monkeypatch)
    lams, _ = spectra.ball_eigenvalues(space, 0)       # balls of radius 0, 1 and all
    assert calls == {"newton": [], "per_block": []}
    assert lams == pytest.approx((2.0, 2 - math.sqrt(2), 0.0), abs=1e-12)


def test_clamp_rule_is_kept():
    # a value within tol * degree of 0 is reported as 0.0, on both routes
    space = dl.hamming(3, 2)            # balls 3, 2 - sqrt(3) + 1, 0.354, 0
    lams, _ = spectra.ball_eigenvalues(space, 0, 0.2)       # 0.2 * degree = 0.6
    assert lams[0] == 3.0 and lams[1] == pytest.approx(3 - math.sqrt(3), rel=1e-14)
    assert lams[2:] == (0.0, 0.0)
    assert spectra.spherical_subset_eigen(space, 0, range(3), 0.2).value == 0.0
    assert spectra.spherical_subset_eigen(space, 0, range(3)).value > 0.35


# ---------------------------------------------------------------------------
# Bessel zeros


def dense_bessel_zero(order):
    """1/lambda_max of the full K x K zero-diagonal matrix."""
    k = np.arange(1, 40 + math.ceil(4 * max(order, 0) ** (1 / 3)))
    off = 0.5 / np.sqrt((order + k) * (order + k + 1))
    return float(1 / np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[-1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(-0.4, 20), st.floats(20, 1e4)))
def test_half_size_bessel_zero_matches_the_full_matrix(order):
    if abs(order) == 0.5:
        return
    full = dense_bessel_zero(order)
    assert abs(dl.bessel_first_zero(order) - full) <= 1e-14 * full


def test_bessel_zeros_against_tables():
    # j_{0,1}, j_{1,1}, j_{2,1}, j_{10,1} (Abramowitz and Stegun, table 9.5)
    for order, zero in [(0, 2.404825557695773), (1, 3.831705970207512),
                        (2, 5.135622301840683), (10, 14.47550068655454)]:
        assert dl.bessel_first_zero(order) == pytest.approx(zero, rel=1e-14)
