import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import designlab as dl

# known optimal lattice packing densities, from the classical formulas:
# Z, hexagonal, FCC, D4, E8, Leech
KNOWN_DENSITIES = {
    1: 1.0,
    2: math.pi / math.sqrt(12),
    3: math.pi / math.sqrt(18),
    4: math.pi ** 2 / 16,
    8: math.pi ** 4 / 384,
    24: math.pi ** 12 / math.factorial(12),
}


def test_bessel_half_integer_zeros():
    assert dl.bessel_first_zero(-0.5) == pytest.approx(math.pi / 2, abs=1e-12)
    assert dl.bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-12)


def test_bessel_j0_zero():
    assert dl.bessel_first_zero(0.0) == pytest.approx(2.404825557695773,
                                                      abs=1e-10)


def test_bessel_order_validation():
    with pytest.raises(ValueError):
        dl.bessel_first_zero(-0.6)


def test_bessel_zero_interlacing():
    orders = np.arange(-0.5, 32.01, 0.5)
    zeros = [dl.bessel_first_zero(float(v)) for v in orders]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_ball_tone_examples():
    assert dl.ball_fundamental_tone(3, 1.0) == pytest.approx(math.pi ** 2,
                                                             abs=1e-10)
    assert dl.ball_fundamental_tone(1, 1.0) == pytest.approx(
        (math.pi / 2) ** 2, abs=1e-10)


def test_ball_tone_scaling():
    for n in (1, 2, 5):
        assert dl.ball_fundamental_tone(n, 2.0) == pytest.approx(
            dl.ball_fundamental_tone(n, 1.0) / 4, rel=1e-12)


def test_covolume_bound_1d():
    tb = dl.torus_covolume_bound(1, 1.0)
    assert tb.covolume_bound == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-9)
    assert tb.rho_star == pytest.approx(1 / 3)
    # sanity on the integer lattice: covol(Z*) = 1 <= bound
    assert 1.0 <= tb.covolume_bound


def test_covolume_bound_scaling():
    for n in (1, 3, 8):
        b1 = dl.torus_covolume_bound(n, 1.0).covolume_bound
        b2 = dl.torus_covolume_bound(n, 2.0).covolume_bound
        assert b2 == pytest.approx(b1 / 2 ** n, rel=1e-12)


def test_covolume_duality_identity():
    for n in (1, 2, 4, 8, 24):
        tb = dl.torus_covolume_bound(n, 1.5)
        recon = dl.unit_ball_volume(n) * tb.r_star ** n / (1 - tb.rho_star)
        assert tb.covolume_bound == pytest.approx(recon, abs=1e-9, rel=1e-12)


def test_density_bound_values():
    assert dl.lattice_density_bound(1) == pytest.approx(3 * math.sqrt(3) / 4,
                                                        abs=1e-9)
    assert dl.lattice_density_bound(8) == pytest.approx(0.8879, abs=5e-4)


def test_density_bound_dominates_known_lattices():
    for n, density in KNOWN_DENSITIES.items():
        assert dl.lattice_density_bound(n) >= density


def test_density_scale_invariance():
    # the density bound derived from the covolume bound must not depend on s
    for n in (2, 8):
        vn = dl.unit_ball_volume(n)
        d1 = vn * (1.0 / 2) ** n * dl.torus_covolume_bound(n, 1.0).covolume_bound
        d2 = vn * (2.5 / 2) ** n * dl.torus_covolume_bound(n, 2.5).covolume_bound
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 == pytest.approx(dl.lattice_density_bound(n), rel=1e-12)


def test_rho_grid_agreement():
    for n in range(1, 65):
        tb = dl.torus_covolume_bound(n, 1.0)
        assert abs(tb.rho_grid - n / (n + 2)) <= 1e-6
        assert tb.covolume_grid == pytest.approx(tb.covolume_bound, rel=1e-9)


def test_cycle_discretization_matches_interval_tone():
    # path of k interior points inside cycle(256) vs the continuum interval
    space = dl.cycle(256)
    radius = 100
    k = 2 * radius + 1
    lam = dl.subset_eigen(space, space.ball(0, radius)).value
    continuum = dl.ball_fundamental_tone(1, (k + 1) / 2)
    assert abs(lam - continuum) / continuum < 0.01


# ---------------------------------------------------------------------------
# high dimensions: the bounds are formed from logs where powers overflow


def _direct_bounds(n, s):
    """The closed forms multiplied out directly, valid while nothing overflows."""
    j1 = dl.bessel_first_zero(n / 2 - 1)
    vn = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    tb = dl.torus_covolume_bound(n, s)
    base = vn * (j1 / (2 * math.pi * s)) ** n
    covolume = base * (n / (n + 2)) ** (-n / 2) / (1 - n / (n + 2))
    grid = base * tb.rho_grid ** (-n / 2) / (1 - tb.rho_grid)
    density = vn ** 2 * (j1 / (4 * math.pi)) ** n * ((n + 2) / n) ** (n / 2) * (n + 2) / 2
    cell = vn * (s / 2) ** n
    return tb, vn, covolume, grid, cell * covolume, cell * grid, density


@pytest.mark.parametrize("s", [1.0, 1.7])
def test_log_space_agrees_with_direct_products(s):
    for n in range(1, 237, 5):
        tb, vn, covolume, grid, density, density_grid, lattice = _direct_bounds(n, s)
        assert dl.unit_ball_volume(n) == pytest.approx(vn, rel=1e-12)
        assert tb.covolume_bound == pytest.approx(covolume, rel=1e-12)
        assert tb.covolume_grid == pytest.approx(grid, rel=1e-12)
        assert tb.density_bound == pytest.approx(density, rel=1e-12)
        assert tb.density_grid == pytest.approx(density_grid, rel=1e-12)
        assert dl.lattice_density_bound(n) == pytest.approx(lattice, rel=1e-12)


def test_density_bounds_finite_in_high_dimensions():
    previous = 1.0
    for n in range(237, 401):
        density = dl.lattice_density_bound(n)
        assert 0 < density < previous
        previous = density
        tb = dl.torus_covolume_bound(n, 1.0)
        for value in (tb.density_bound, tb.density_grid):
            assert value == pytest.approx(density, rel=1e-9)
    assert 1e-60 < previous < 1e-58


def test_covolume_bound_infinite_past_float_range():
    assert math.isfinite(dl.torus_covolume_bound(360, 1.0).covolume_bound)
    tb = dl.torus_covolume_bound(400, 1.0)
    assert tb.covolume_bound == math.inf and tb.covolume_grid == math.inf
    assert tb.density_bound > 0


def test_import_leaves_scipy_unloaded():
    probe = ("import sys, designlab; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_bessel_zero_negative_orders_below_order_zero():
    # a negative order must not reach a float power 1/3 (complex in Python)
    zeros = [dl.bessel_first_zero(v) for v in (-0.4999, -0.25, -0.01, 0.0)]
    assert math.pi / 2 < zeros[0]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_bessel_zero_large_order_matches_asymptotic_expansion():
    # Abramowitz & Stegun 9.5.14 at order 2999 (dimension 6000)
    v = 2999.0
    expansion = (v + 1.8557571 * v ** (1 / 3) + 1.033150 * v ** (-1 / 3)
                 - 0.00397 / v - 0.0908 * v ** (-5 / 3) + 0.043 * v ** (-7 / 3))
    assert dl.bessel_first_zero(v) == pytest.approx(expansion, rel=1e-9)


def test_density_bound_dimension_6000():
    assert 0.0 <= dl.lattice_density_bound(6000) < dl.lattice_density_bound(400)


@pytest.mark.parametrize("shortest", [math.nan, math.inf, -math.inf, 0.0])
def test_covolume_bound_rejects_non_finite_shortest(shortest):
    with pytest.raises(ValueError, match="finite shortest"):
        dl.torus_covolume_bound(3, shortest)


def test_torus_runs_without_scipy():
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from designlab.cli import main; "
             "sys.exit(main(['torus', 'density-bound', '--dim', '24']))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stdout + out.stderr
    assert "density_bound = " in out.stdout
