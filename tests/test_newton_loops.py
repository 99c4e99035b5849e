"""The two Newton loops of ``spectra._leading_block_minima``.

A quotient of at most ``_SCALAR_ROWS`` rows is solved one block at a time
in Python floats (``_newton_blocks``), a larger one by the loop vectorised
over the blocks (``_newton_batch``).  Both run the same operations in the
same order, so they are compared here bit for bit, from the same start,
and the route rule is checked on the benchmark's families.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import designlab as dl
from designlab import spectra
from designlab.spaces import quotient_matrix
from test_tridiagonal_route import (BENCH_FAMILIES, C1024, _diagonals, block_minima,
                                    drg_quotient, psd_tridiagonals)

H1000 = (list(range(1000, 0, -1)), list(range(1, 1001)))


def both_loops(diag, off, start=None):
    """x and the still-rising blocks of each loop from the same start, by
    default the Gershgorin start that ``_leading_block_minima`` gives."""
    x, norm = spectra._gershgorin_bounds(diag, off)
    if start is not None:
        x = np.array(start, dtype=float)
    e2 = (off ** 2).tolist()
    results = []
    for loop in (spectra._newton_blocks, spectra._newton_batch):
        lam = x.copy()
        rising = [int(r) for r in loop(diag, e2, lam, norm)]
        results.append((lam, rising))
    return results


def assert_same_bits(diag, off, start=None):
    (blocks, rising_blocks), (batch, rising_batch) = both_loops(diag, off, start)
    assert np.array_equal(blocks.view(np.uint64), batch.view(np.uint64))
    assert rising_blocks == rising_batch
    return blocks, rising_blocks


# ---------------------------------------------------------------------------
# the same bits from both loops


@settings(max_examples=300, deadline=None)
@given(psd_tridiagonals())
def test_loops_agree_on_drawn_psd_tridiagonals(matrix):
    assert_same_bits(*matrix)


@pytest.mark.parametrize("name", sorted(BENCH_FAMILIES))
def test_loops_agree_on_bench_family_quotients(name):
    space = BENCH_FAMILIES[name]()
    sym, _ = quotient_matrix(space, range(space.n_classes + 1))
    lam, rising = assert_same_bits(*_diagonals(sym))
    assert rising == []


@pytest.mark.parametrize("array", [C1024, H1000], ids=["C(1024)", "H(1000,2)"])
def test_loops_agree_on_leading_rows_of_large_quotients(array):
    diag, off = _diagonals(drg_quotient(*array)[:64, :64])
    assert_same_bits(diag, off)


def test_zero_pivot_at_the_start_keeps_x():
    # Gershgorin starts block 0 at a_0 itself, so its first pivot is 0
    lam, rising = assert_same_bits(np.array([3.0, 5.0]), np.array([-1.0]))
    assert lam[0] == 3.0 and rising == []
    lam, rising = assert_same_bits(np.array([2.0, 2.0]), np.array([-1.0]), [1.0, 2.0])
    assert lam.tolist() == [2.0, 2.0] and rising == []


def test_falling_step_keeps_x():
    # x = 1.5 lies between the roots 1 and 3 of [[2, -1], [-1, 2]]: the
    # step of block 1 is -0.75, so the block ends where it started
    lam, rising = assert_same_bits(np.array([2.0, 2.0]), np.array([-1.0]), [2.0, 1.5])
    assert lam.tolist() == [2.0, 1.5] and rising == []


def test_nan_step_keeps_x():
    # q = e^2 / d_0 = 1e300 / 1e-10 overflows, so d_1 = -inf and g_1 = NaN
    start = [1.0, 1.0 - 1e-10]
    lam, rising = assert_same_bits(np.array([1.0, 1.0]), np.array([-1e150]), start)
    assert lam.tolist() == start and rising == []


# ---------------------------------------------------------------------------
# the step cap on the vectorised loop


def test_iteration_cap_hands_rising_blocks_to_eigvalsh_above_the_threshold(monkeypatch):
    sym, _ = quotient_matrix(dl.cycle(160), range(81))
    diag, off = _diagonals(sym)
    assert len(diag) > spectra._SCALAR_ROWS
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
# which loop runs


def _record_loops(monkeypatch):
    calls = {"blocks": [], "batch": []}
    for name, loop in [("blocks", spectra._newton_blocks), ("batch", spectra._newton_batch)]:
        def record(diag, *args, name=name, loop=loop):
            calls[name].append(len(diag))
            return loop(diag, *args)
        monkeypatch.setattr(spectra, f"_newton_{name}", record)
    return calls


@pytest.mark.parametrize("name", ["H(8,2)", "J(12,5)", "H(6,3)"])
def test_short_quotients_take_the_scalar_loop(monkeypatch, name):
    space = BENCH_FAMILIES[name]()
    calls = _record_loops(monkeypatch)
    spectra.ball_eigenvalues(space, 0)
    spectra.spherical_subset_eigen(space, 0, [0, 1])
    assert calls == {"blocks": [space.n_classes + 1, 2], "batch": []}


def test_long_quotients_take_the_vectorised_loop(monkeypatch):
    space = BENCH_FAMILIES["C(192)"]()
    calls = _record_loops(monkeypatch)
    spectra.ball_eigenvalues(space, 0)
    assert calls == {"blocks": [], "batch": [97]}
