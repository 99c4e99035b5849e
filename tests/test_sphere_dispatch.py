"""One quotient-or-dense dispatch for unions of spheres: both routes check
the origin and the sphere set by the same rules, so a graph file and a
scheme file of the same space accept and refuse the same input."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlab as dl
from conftest import extended_hamming_code
from designlab.cli import main
from designlab.spectra import ball_eigenvalues, sphere_union_eigen


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The C(8) graph file, a saved J(8,3), Petersen as a graph and as a
    2-class scheme, and the [8,4,4] code."""
    d = tmp_path_factory.mktemp("dispatch")
    c8 = d / "c8.txt"
    c8.write_text("graph 8\n" + "".join(f"edge {i} {(i + 1) % 8}\n" for i in range(8)))
    j83 = d / "j83.txt"
    dl.save_space(dl.johnson(8, 3), str(j83))
    pairs = list(itertools.combinations(range(5), 2))
    disjoint = {(a, b): not set(pairs[a]) & set(pairs[b])
                for a, b in itertools.combinations(range(10), 2)}
    pg = d / "petersen_graph.txt"
    pg.write_text("graph 10\n" + "".join(f"edge {a} {b}\n"
                                         for (a, b), e in disjoint.items() if e))
    ps = d / "petersen_scheme.txt"
    ps.write_text("scheme 10 2\n" + "".join(f"rel {a} {b} {1 if e else 2}\n"
                                            for (a, b), e in disjoint.items()))
    code = d / "code.txt"
    code.write_text("".join(f"{w}\n" for w in extended_hamming_code()))
    return {"c8": f"file:{c8}", "j83": f"file:{j83}", "code": str(code),
            "petersen_graph": dl.load_space(str(pg)),
            "petersen_scheme": dl.load_space(str(ps))}


# ---------------------------------------------------------------------------
# (a) error cases: exit 1 with an error: line, on every kind of space

FAMILY_SPECS = ["hamming:n=8,q=2", "hamming:n=4,q=3", "johnson:n=8,w=3", "cycle:n=20"]


def _error_cases():
    for spec in FAMILY_SPECS[1:] + ["c8", "j83"]:          # H(8,2) has vertex 99
        yield [spec, "--ball", "1", "--origin", "99"], "origin 99 out of range"
    for spec in FAMILY_SPECS + ["c8", "j83"]:
        yield [spec, "--ball", "1", "--origin", "-1"], "origin -1 out of range"
    for spheres in ("0,9", "0,-1", "7"):                  # m = 2 on a graph file
        yield ["c8", "--spheres", spheres], "sphere index out of range"


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("args, message", list(_error_cases()),
                         ids=[" ".join(a) for a, _ in _error_cases()])
def test_subset_eig_refuses_with_one_error_line(capsys, files, args, message, fmt):
    spec = files.get(args[0], args[0])
    code, out = run(capsys, "subset-eig", spec, *args[1:], "--format", fmt)
    assert code == 1
    assert out == f"error: {message}\n"


@pytest.mark.parametrize("ball", [9, -1])
def test_cover_reads_the_ball_radius_like_bound(capsys, files, ball):
    code, out = run(capsys, "cover", "hamming:n=8,q=2", "--design", files["code"],
                    "--t", 8, "--ball", ball)
    assert (code, out) == (1, "error: ball radius out of range 0..8\n")
    code, out = run(capsys, "bound", "hamming:n=8,q=2", "--t", 8, "--ball", ball)
    assert (code, out) == (1, "error: ball radius out of range 0..8\n")


def test_cover_on_a_graph_file_checks_the_ball_radius(capsys, files, tmp_path):
    design = tmp_path / "d.txt"
    design.write_text("0\n4\n")
    code, out = run(capsys, "cover", files["c8"], "--design", design,
                    "--t", 2, "--ball", 9)
    assert (code, out) == (1, "error: ball radius out of range 0..2\n")


# ---------------------------------------------------------------------------
# (b) Petersen as a graph file and as a scheme file: the same answers


def _outcome(space, origin, spheres):
    try:
        eig = sphere_union_eigen(space, origin, spheres)
    except ValueError as exc:
        return str(exc)
    return eig


@settings(max_examples=150, deadline=None)
@given(origin=st.integers(-2, 11),
       spheres=st.lists(st.integers(-2, 4), max_size=6))
def test_graph_and_scheme_routes_agree_on_petersen(files, origin, spheres):
    graph, scheme = files["petersen_graph"], files["petersen_scheme"]
    dense, quot = _outcome(graph, origin, spheres), _outcome(scheme, origin, spheres)
    if isinstance(quot, str) or isinstance(dense, str):
        assert dense == quot
        return
    assert (dense.method, quot.method) == ("dense", "quotient")
    assert np.array_equal(dense.omega, quot.omega)
    assert dense.origin == quot.origin == origin
    assert dense.spheres == quot.spheres == tuple(sorted(set(spheres)))
    assert dense.value == pytest.approx(quot.value, abs=1e-9)


def test_dense_ball_sweep_checks_the_origin(files):
    with pytest.raises(dl.SchemeError, match="origin 10 out of range"):
        ball_eigenvalues(files["petersen_graph"], 10)
    with pytest.raises(dl.SchemeError, match="origin -1 out of range"):
        ball_eigenvalues(files["petersen_scheme"], -1)


def test_design_bound_names_omega_from_the_route(files):
    graph = files["petersen_graph"]
    spec = dl.spectral_decomposition(graph)
    rep = dl.design_bound(graph, spec, 4, spheres=[1, 0, 1])
    assert rep.omega == "spheres 0,1"
    assert rep.subset_eig.spheres == (0, 1)
    with pytest.raises(ValueError, match="sphere index out of range"):
        dl.design_bound(graph, spec, 4, spheres=[0, 3])


@pytest.mark.parametrize("origin", [-1, 256])
def test_isometry_routes_check_the_origin(tmp_path, origin):
    space = dl.hamming(8, 2)
    design = dl.make_design(extended_hamming_code())
    with pytest.raises(dl.SchemeError, match=f"origin {origin} out of range"):
        dl.translations_to_origin(space, design, origin)
    path = tmp_path / "iso.txt"
    path.write_text("perm 256\n" + "".join(f"{v}\n" for v in range(256)))
    with pytest.raises(dl.SchemeError, match=f"origin {origin} out of range"):
        dl.load_isometries(str(path), space, design, origin)


# ---------------------------------------------------------------------------
# (c) a hand-built scheme without p takes no route silently


def test_hand_built_scheme_without_p_refuses_every_sphere_route():
    space = dataclasses.replace(dl.cycle(6), kind="scheme", intersection_numbers=None)
    spec = dl.spectral_decomposition(dl.cycle(6))
    with pytest.raises(ValueError, match="validate it first"):
        sphere_union_eigen(space, 0, [0, 1])
    with pytest.raises(ValueError, match="validate it first"):
        dl.design_bound(space, spec, 1, spheres=[0, 1])
    with pytest.raises(ValueError, match="validate it first"):
        ball_eigenvalues(space, 0)


# ---------------------------------------------------------------------------
# (d) CLI paths


def test_spheres_on_success(capsys):
    eig = dl.spherical_subset_eigen(dl.hamming(3, 2), 0, [0, 2])
    code, out = run(capsys, "subset-eig", "hamming:n=3,q=2", "--spheres", "2,0,2")
    assert code == 0
    assert out == f"method = quotient\nvolume = 4\nlambda = {eig.value!r}\n"


def test_key_value_rows_in_csv(capsys):
    eig = dl.spherical_subset_eigen(dl.hamming(3, 2), 0, [0, 1])
    code, out = run(capsys, "subset-eig", "hamming:n=3,q=2", "--spheres", "0,1",
                    "--format", "csv")
    assert code == 0
    assert out == f"method,quotient\nvolume,4\nlambda,{eig.value!r}\n"


def test_bound_set_on_success(capsys, tmp_path):
    path = tmp_path / "omega.txt"
    path.write_text("0\n")
    code, out = run(capsys, "bound", "hamming:n=3,q=2", "--t", 6, "--set", path)
    assert code == 0
    assert out == ("omega = set of 1 vertices\nlambda = 3.0\nvol_omega = 1\n"
                   "vol_space = 8\nbound = 4.0\nvacuous = false\n")


def test_design_search_that_finds_nothing(capsys):
    code, out = run(capsys, "design", "search", "cycle:n=8", "--t", 4,
                    "--max-size", 1)
    assert code == 0
    assert out == "found = false\nmax_size = 1\n"


def test_failing_space_validate_on_a_graph_file(capsys, files):
    failures = dl.validate_scheme(dl.build_named_space(files["c8"])).failures
    assert failures
    code, out = run(capsys, "space", "validate", files["c8"])
    assert code == 1
    lines = out.splitlines()
    assert lines[-len(failures) - 1] == "valid = false"
    assert lines[-len(failures):] == [f"error: {f}" for f in failures]


def test_graph_space_round_trips_through_save_space(files, tmp_path):
    space = dl.build_named_space(files["c8"])
    path = tmp_path / "c8_again.txt"
    dl.save_space(space, str(path))
    again = dl.load_space(str(path))
    assert again.kind == "graph"
    assert np.array_equal(again.classes, space.classes)
    assert np.array_equal(again.valencies, space.valencies)
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if v - u in (1, 7)]
    assert path.read_text() == "graph 8\n" + "".join(f"edge {u} {v}\n" for u, v in edges)


def test_scheme_space_round_trips_through_save_space(tmp_path):
    space = dl.hamming(2, 2)
    path = tmp_path / "h22.txt"
    dl.save_space(space, str(path))
    assert path.read_text() == ("scheme 4 2\nrel 0 1 1\nrel 0 2 1\nrel 0 3 2\n"
                                "rel 1 2 2\nrel 1 3 1\nrel 2 3 1\n")
    again = dl.load_space(str(path))
    assert again.kind == "scheme"
    assert np.array_equal(again.classes, space.classes)


@pytest.mark.parametrize("argv", [["subset-eig", "--spheres", "0,2"],
                                  ["bound", "--t", "3", "--auto"]])
def test_empty_sphere_is_refused_on_both_routes(capsys, tmp_path, argv):
    # K4: class 2 never occurs, in a graph file and in a scheme file alike
    pairs = list(itertools.combinations(range(4), 2))
    graph, scheme = tmp_path / "k4_graph.txt", tmp_path / "k4_scheme.txt"
    graph.write_text("graph 4\n" + "".join(f"edge {a} {b}\n" for a, b in pairs))
    scheme.write_text("scheme 4 2\n" + "".join(f"rel {a} {b} 1\n" for a, b in pairs))
    for path in (graph, scheme):
        code, out = run(capsys, argv[0], f"file:{path}", *argv[1:])
        assert (code, out) == (1, "error: sphere 2 is empty\n"), path.name
