"""Inputs past the size cap or the float range are error lines.

Family sizes are compared with the cap before the exact count is formed,
torus lengths whose t = 4 pi^2 s^2 leaves the normal floats are refused,
and Bessel orders past the limit are refused before any matrix is made.
Invocations that would exhaust memory or hang without those checks run in
a subprocess with a 1 GiB address-space limit and a timeout.
"""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import designlab as dl
from designlab import torus
from designlab.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(*argv):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "designlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_limit_memory)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("spec, name", [
    ("hamming:n=99999999999999999999,q=2", "hamming(99999999999999999999,2)"),
    ("hamming:n=10000000000,q=2", "hamming(10000000000,2)"),
    ("johnson:n=4000000,w=2000000", "johnson(4000000,2000000)"),
    ("johnson:n=1000000,w=500000", "johnson(1000000,500000)"),
])
def test_huge_families_are_refused_before_their_size(spec, name):
    assert run_limited("space", "info", spec) == (
        1, f"error: {name} has more vertices than the cap 4096\n")


@pytest.mark.parametrize("build, args, count", [
    (dl.hamming, (13, 2), 8192),
    (dl.hamming, (2, 65), 4225),
    (dl.hamming, (13, 4096), 4096 ** 13),
    (dl.johnson, (16, 8), 12870),
    (dl.johnson, (92, 2), 4186),
    (dl.johnson, (4096, 13), math.comb(4096, 13)),
])
def test_exact_counts_are_kept_where_small(build, args, count):
    name = f"{build.__name__}({args[0]},{args[1]})"
    with pytest.raises(dl.SchemeError) as err:
        build(*args)
    assert str(err.value) == f"{name} has {count} vertices > cap 4096"


@pytest.mark.parametrize("build, args", [
    (dl.hamming, (14, 2)),
    (dl.hamming, (1, 4097)),
    (dl.hamming, (4096, 4096)),
    (dl.johnson, (4097, 1)),
    (dl.johnson, (28, 14)),
])
def test_bounded_families_say_more_than_the_cap(build, args):
    name = f"{build.__name__}({args[0]},{args[1]})"
    with pytest.raises(dl.SchemeError) as err:
        build(*args)
    assert str(err.value) == f"{name} has more vertices than the cap 4096"


@pytest.mark.parametrize("build, args", [
    (dl.hamming, (12, 2)),
    (dl.hamming, (6, 4)),
    (dl.hamming, (2, 64)),
    (dl.hamming, (1, 4096)),
    (dl.johnson, (91, 2)),
    (dl.johnson, (14, 5)),
])
def test_families_at_the_cap_are_built(build, args):
    assert build(*args).n_vertices <= 4096


@pytest.mark.parametrize("shortest", ["1e200", "1e-200", "2.2e153", "1e-160"])
def test_torus_lengths_outside_the_float_range_are_error_lines(capsys, shortest):
    code = main(["torus", "covolume-bound", "--dim", "3", "--shortest", shortest])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (f"error: shortest {float(shortest)!r} puts t = 4 pi^2 shortest^2 "
                   "outside the normal float range\n")


@pytest.mark.parametrize("shortest", ["1e153", "1e-153"])
def test_torus_lengths_near_the_float_range_still_run(capsys, shortest):
    assert main(["torus", "covolume-bound", "--dim", "3", "--shortest", shortest]) == 0
    assert "density_bound = 1.47472274224" in capsys.readouterr().out


def test_bessel_orders_past_the_limit_are_refused():
    limit = torus._BESSEL_ORDER_MAX
    assert dl.bessel_first_zero(limit) > limit
    for order in (limit + 0.5, 5e11 - 1):
        with pytest.raises(ValueError, match="above the limit"):
            dl.bessel_first_zero(order)
    for dim in (2 * limit + 3, 10 ** 12):
        with pytest.raises(ValueError, match="above the limit"):
            dl.lattice_density_bound(dim)
        with pytest.raises(ValueError, match="above the limit"):
            dl.torus_covolume_bound(dim, 1.0)


DIM_PAST_FLOATS = 10 ** 400             # dim / 2 overflows a float


@pytest.mark.parametrize("call", [
    lambda: dl.lattice_density_bound(DIM_PAST_FLOATS),
    lambda: torus.log10_density_bound(DIM_PAST_FLOATS),
    lambda: dl.torus_covolume_bound(DIM_PAST_FLOATS, 1.0),
    lambda: dl.ball_fundamental_tone(DIM_PAST_FLOATS, 1.0),
], ids=["density", "log10-density", "covolume", "ball-tone"])
def test_torus_dims_past_the_float_range_are_refused(call):
    with pytest.raises(ValueError, match="torus dim is above the limit 253012018"):
        call()


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0])
def test_ball_tone_needs_a_finite_positive_radius(radius):
    with pytest.raises(ValueError, match="radius > 0, finite"):
        dl.ball_fundamental_tone(3, radius)


@pytest.mark.parametrize("action", [["density-bound"], ["covolume-bound"]])
def test_torus_dims_past_the_float_range_are_error_lines(action):
    argv = ["torus", *action, "--dim", str(DIM_PAST_FLOATS)]
    if action == ["covolume-bound"]:
        argv += ["--shortest", "1"]
    assert run_limited(*argv) == (
        1, "error: torus dim is above the limit 253012018 (Bessel order 126506008)\n")
