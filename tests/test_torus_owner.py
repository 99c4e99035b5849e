"""One owner for the flat-torus density bound.

``torus._density`` forms v_n^2 (j/4 pi)^n rho^(-n/2)/(1 - rho), in which the
shortest length s cancels, and it alone serves ``lattice_density_bound``,
``log10_density_bound`` and the density fields of ``torus_covolume_bound``.
Each CLI torus action reads one ``torus_covolume_bound`` call, so it solves
one Bessel zero and both actions print the same density rows.
"""

import pytest

import designlab as dl
from designlab import torus
from designlab.cli import main

DIMS = [1, 2, 3, 8, 24, 237, 400, 2018]
SHORTEST = [0.5, 1.0, 1.7, 3.1]


@pytest.mark.parametrize("shortest", SHORTEST)
@pytest.mark.parametrize("dim", DIMS)
def test_covolume_bound_reads_the_one_density(dim, shortest):
    bound = dl.torus_covolume_bound(dim, shortest)
    assert bound.density_bound == dl.lattice_density_bound(dim)
    assert bound.log10_density_bound == torus.log10_density_bound(dim)
    assert bound.density_grid == dl.torus_covolume_bound(dim, 1.0).density_grid


def rows(capsys, *argv):
    assert main(["torus", *argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.split(",") for line in lines)


# pairs at which the density computed through the covolume differed from the
# closed form in its last bits
@pytest.mark.parametrize("dim, shortest", [
    (2, "1"), (5, "1"), (8, "1.7"), (24, "0.5"), (237, "1"), (400, "1.7"),
    (1000, "0.5")])
def test_both_actions_print_the_same_density_rows(capsys, dim, shortest):
    density = rows(capsys, "density-bound", "--dim", str(dim))
    covolume = rows(capsys, "covolume-bound", "--dim", str(dim),
                    "--shortest", shortest)
    for key in ("density_bound", "log10_density_bound"):
        assert density[key] == covolume[key]


@pytest.mark.parametrize("argv", [
    ["density-bound", "--dim", "8"], ["density-bound", "--dim", "400"],
    ["covolume-bound", "--dim", "3", "--shortest", "1"],
    ["covolume-bound", "--dim", "24", "--shortest", "1.7"]],
    ids=["density-8", "density-400", "covolume-3", "covolume-24"])
def test_each_action_solves_one_bessel_zero(capsys, monkeypatch, argv):
    orders = []

    def counted(order):
        orders.append(order)
        return zero(order)
    zero = torus.bessel_first_zero
    monkeypatch.setattr(torus, "bessel_first_zero", counted)
    rows(capsys, *argv)
    assert len(orders) == 1


@pytest.mark.parametrize("argv, line", [
    (["density-bound", "--dim", "0"], "error: need dim >= 1"),
    (["covolume-bound", "--dim", "0", "--shortest", "1"],
     "error: need dim >= 1 and finite shortest > 0")], ids=["density", "covolume"])
def test_dim_zero_keeps_its_error_line(capsys, argv, line):
    assert main(["torus", *argv]) == 1
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("dim", [10 ** 400, 253012019])
def test_unit_ball_volume_refuses_a_dim_above_the_limit(dim):
    with pytest.raises(ValueError, match="torus dim is above the limit 253012018"):
        dl.unit_ball_volume(dim)


@pytest.mark.parametrize("dim", [-1, -2, -3, -10 ** 400])
def test_unit_ball_volume_refuses_a_negative_dim(dim):
    with pytest.raises(ValueError, match=f"need dim >= 0, got {dim}"):
        dl.unit_ball_volume(dim)
    assert dl.unit_ball_volume(0) == 1.0


def test_bessel_zero_refuses_nan():
    with pytest.raises(ValueError, match="order must be >= -1/2"):
        dl.bessel_first_zero(float("nan"))
