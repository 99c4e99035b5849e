"""The torus actions' last row, ``log10_density_bound``.

The density bound underflows to 0.0 from dimension 2018; its log10, from
the sum of logs that ``lattice_density_bound`` forms, stays finite, and
below that dimension it agrees with log10 of the printed bound.
"""

import math

import pytest

from designlab.cli import main

ACTIONS = [["density-bound"], ["covolume-bound", "--shortest", "1"]]


def rows(capsys, action, dim):
    assert main(["torus", *action, "--dim", str(dim), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("log10_density_bound,")
    return {key: float(value) for key, value in (line.split(",") for line in lines)}


@pytest.mark.parametrize("action", ACTIONS, ids=["density", "covolume"])
@pytest.mark.parametrize("dim", [2018, 3000, 6000])
def test_log10_row_is_finite_past_underflow(capsys, action, dim):
    out = rows(capsys, action, dim)
    assert out["density_bound"] == 0.0
    assert math.isfinite(out["log10_density_bound"])
    assert out["log10_density_bound"] < -323


@pytest.mark.parametrize("action", ACTIONS, ids=["density", "covolume"])
@pytest.mark.parametrize("dim", [1, 3, 8, 24, 236, 237, 400, 1900])
def test_log10_row_agrees_with_the_bound(capsys, action, dim):
    out = rows(capsys, action, dim)
    assert out["log10_density_bound"] == pytest.approx(
        math.log10(out["density_bound"]), rel=0, abs=1e-11)
