import numpy as np
import pytest

import designlab as dl
from designlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_bound_hamming(capsys):
    code, out = run(capsys, "bound", "hamming:n=3,q=2", "--t", "6", "--ball", "0")
    assert code == 0
    assert "bound = 4.0" in out


def test_bound_vacuous(capsys):
    code, out = run(capsys, "bound", "cycle:n=4", "--t", "1", "--ball", "0")
    assert code == 0
    assert "vacuous = true" in out


def test_design_verify_true(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n2\n")
    code, out = run(capsys, "design", "verify", "cycle:n=4",
                    "--design", str(dfile), "--t", "4")
    assert code == 0
    assert "verified = true" in out


def test_design_verify_false_exits_1(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n1\n")
    code, out = run(capsys, "design", "verify", "cycle:n=4",
                    "--design", str(dfile), "--t", "4")
    assert code == 1
    assert "verified = false" in out
    assert "error:" in out


def test_design_verify_reports_the_residual_it_checked(capsys, tmp_path):
    # t is just above 8: the theta = 8 eigenspace (residual sqrt(70/256)) is
    # not checked, so the worst checked one is theta = 6, sqrt(56/256)
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n")
    code, out = run(capsys, "design", "verify", "hamming:n=8,q=2",
                    "--design", str(dfile), "--t", "8.000000000001")
    assert code == 1
    assert "(max residual 4.677e-01)" in out


def test_design_strength(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n2\n")
    code, out = run(capsys, "design", "strength", "cycle:n=4",
                    "--design", str(dfile))
    assert code == 0
    assert "strength = 4.0" in out


def test_design_search(capsys):
    code, out = run(capsys, "design", "search", "cycle:n=4", "--t", "4",
                    "--max-size", "4")
    assert code == 0
    assert "size = 2" in out
    assert "points = 0 2" in out


def test_space_info_and_validate(capsys):
    code, out = run(capsys, "space", "info", "johnson:n=4,w=2")
    assert code == 0
    assert "vertices = 6" in out
    code, out = run(capsys, "space", "validate", "hamming:n=3,q=2")
    assert code == 0
    assert "valid = true" in out


def test_space_validate_runs_validation_once(capsys, tmp_path, monkeypatch):
    scheme = tmp_path / "j62.txt"
    dl.save_space(dl.johnson(6, 2), str(scheme))
    graph = tmp_path / "c5.txt"
    graph.write_text("graph 5\n" + "".join(f"edge {v} {(v + 1) % 5}\n" for v in range(5)))
    calls = []
    validate = dl.spaces.validate_scheme

    def counting(space):
        calls.append(space.kind)
        return validate(space)

    monkeypatch.setattr(dl.spaces, "validate_scheme", counting)
    for spec, kind in [(f"file:{scheme}", "scheme"), (f"file:{graph}", "graph"),
                       ("hamming:n=3,q=2", "hamming")]:
        calls.clear()
        code, out = run(capsys, "space", "validate", spec)
        assert code == 0 and "valid = true" in out
        assert calls == [kind]


def test_spectrum(capsys):
    code, out = run(capsys, "spectrum", "cycle:n=4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1].startswith("0.0,1")


def test_subset_eig(capsys):
    code, out = run(capsys, "subset-eig", "hamming:n=8,q=2", "--ball", "1")
    assert code == 0
    assert "method = quotient" in out
    lam = float([ln for ln in out.splitlines() if ln.startswith("lambda")][0]
                .split(" = ")[1])
    assert lam == pytest.approx(8 - 2 * np.sqrt(2), abs=1e-9)


def test_subset_eig_from_file(capsys, tmp_path):
    sfile = tmp_path / "omega.txt"
    sfile.write_text("3\n0\n1\n")
    code, out = run(capsys, "subset-eig", "cycle:n=4", "--set", str(sfile))
    assert code == 0
    assert "method = dense" in out


def test_cover(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n2\n")
    code, out = run(capsys, "cover", "cycle:n=4", "--design", str(dfile),
                    "--t", "4", "--ball", "0")
    assert code == 0
    assert "chain_design_volume = 2.0" in out
    assert "chain_spectral_volume = 2.0" in out


def test_cover_perm_header_without_size(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n255\n")
    bad = tmp_path / "iso.txt"
    bad.write_text("perm\n" + "".join(f"{x}\n" for x in range(256)))
    code, out = run(capsys, "cover", "hamming:n=8,q=2", "--design", str(dfile),
                    "--t", "8", "--ball", "1", "--isometries", str(bad))
    assert code == 1
    assert out.startswith(f"error: {bad}:1: expected 'perm 256' header")


def test_torus_commands(capsys):
    code, out = run(capsys, "torus", "covolume-bound", "--dim", "1",
                    "--shortest", "1")
    assert code == 0
    assert "covolume_bound = 1.2990381056766578" in out
    code, out = run(capsys, "torus", "density-bound", "--dim", "8")
    assert code == 0
    assert "density_bound = 0.88" in out


def test_torus_density_bound_high_dimension(capsys):
    code, out = run(capsys, "torus", "density-bound", "--dim", "400")
    assert code == 0
    rows = dict(line.split(" = ") for line in out.splitlines())
    for key in ("density_bound", "density_bound_grid"):
        assert 0 < float(rows[key]) < 1e-50


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "cycle:n=4"])          # missing --t and subset choice
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_non_finite_tol_rejected(capsys, tol):
    code, out = run(capsys, "spectrum", "hamming:n=3,q=2", "--tol", tol)
    assert code == 1
    assert out.startswith("error: tolerance must be positive and finite")


def test_design_verify_rejects_infinite_t(capsys, tmp_path):
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n1\n")
    args = ("design", "verify", "hamming:n=3,q=2", "--design", str(dfile), "--t")
    code, out = run(capsys, *args, "100")
    assert (code, out.splitlines()[0]) == (1, "verified = false")
    code, out = run(capsys, *args, "inf")
    assert code == 1
    assert out.startswith("error: t must be positive")


@pytest.mark.parametrize("command", [
    ("design", "search", "cycle:n=4", "--t", "nan"),
    ("bound", "hamming:n=3,q=2", "--t", "inf", "--auto"),
    ("bound", "hamming:n=3,q=2", "--t", "nan", "--ball", "1"),
])
def test_non_finite_t_rejected(capsys, command):
    code, out = run(capsys, *command)
    assert code == 1
    assert out.startswith("error: t must be positive")


@pytest.mark.parametrize("shortest", ["nan", "inf"])
def test_torus_non_finite_shortest_rejected(capsys, shortest):
    code, out = run(capsys, "torus", "covolume-bound", "--dim", "3",
                    "--shortest", shortest)
    assert (code, out) == (1, "error: need dim >= 1 and finite shortest > 0\n")


def test_invalid_input_exits_1(capsys):
    code, out = run(capsys, "space", "info", "hamming:n=0,q=2")
    assert code == 1
    assert out.startswith("error:")


def test_file_spec_roundtrip(capsys, tmp_path):
    # every built-in serialised and reloaded gives identical spectral data
    for name, space in [("h", dl.hamming(3, 2)), ("j", dl.johnson(4, 2)),
                        ("c", dl.cycle(6))]:
        path = tmp_path / f"{name}.txt"
        dl.save_space(space, str(path))
        loaded = dl.build_named_space(f"file:{path}")
        a = dl.spectral_decomposition(space)
        b = dl.spectral_decomposition(loaded)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        assert np.abs(a.zonal - b.zonal).max() <= 1e-8


def test_csv_determinism_across_threads(capsys):
    outs = []
    for threads in ("1", "8"):
        code, out = run(capsys, "bound", "hamming:n=8,q=2", "--t", "8",
                        "--auto", "--format", "csv", "--threads", threads)
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [
    ("subset-eig", "hamming:n=4,q=2"),
    ("bound", "hamming:n=4,q=2", "--t", "2"),
])
def test_out_of_range_subset_names_the_line(capsys, tmp_path, command):
    sfile = tmp_path / "s.txt"
    sfile.write_text("0\n99\n")
    code, out = run(capsys, *command, "--set", str(sfile))
    assert code == 1
    assert out == f"error: {sfile}:2: subset vertex out of range\n"


def test_bound_auto_vacuous_follows_the_below_t_rule(capsys):
    # t sits 1.1e-9 above lambda(ball 1) = 3 - sqrt(3): inside the noise band
    # tol * max(1, t) of the strict theta < t rule, so ball 1 is vacuous
    space = dl.hamming(3, 2)
    lam = dl.spectra.ball_eigenvalues(space, 0, 1e-9)[0][1]
    t = lam + 1.1e-9
    code, out = run(capsys, "bound", "hamming:n=3,q=2", "--t", repr(t), "--auto")
    assert code == 0
    assert f"1  {lam!r}  4  0.0  true" in out.splitlines()


def test_cover_vacuity_follows_the_below_t_rule(capsys, tmp_path):
    # lambda(ball 1) = 3 - sqrt(3) lies within tol * max(1, t) below t, so
    # bound calls ball 1 vacuous and cover refuses to certify it
    dfile = tmp_path / "d.txt"
    dfile.write_text("0\n3\n5\n6\n")
    t = "1.267949193531123"
    code, out = run(capsys, "bound", "hamming:n=3,q=2", "--t", t, "--ball", "1")
    assert code == 0
    assert "vacuous = true" in out
    code, out = run(capsys, "cover", "hamming:n=3,q=2", "--design", str(dfile),
                    "--t", t, "--ball", "1")
    assert code == 1
    assert out.startswith("error: vacuous:")


@pytest.mark.parametrize("spheres", ["0,,1", ",", "", "0,x"])
def test_malformed_spheres_name_the_flag(capsys, spheres):
    code, out = run(capsys, "subset-eig", "hamming:n=3,q=2", "--spheres", spheres)
    assert code == 1
    assert out == (f"error: --spheres {spheres!r} is not a comma-separated "
                   "list of integers\n")


def test_only_bound_checks_the_origin_of_a_set(capsys, tmp_path):
    # bound --set builds its decomposition at --origin; subset-eig --set reads none
    sfile = tmp_path / "s.txt"
    sfile.write_text("0\n1\n")
    code, out = run(capsys, "bound", "hamming:n=3,q=2", "--t", "2", "--set", str(sfile),
                    "--origin", "99")
    assert (code, out) == (1, "error: origin 99 out of range\n")
    code, out = run(capsys, "subset-eig", "hamming:n=3,q=2", "--set", str(sfile),
                    "--origin", "99")
    assert code == 0 and "volume = 2" in out
