"""Scheme-level reads come from the space: ``Space.rows`` serves one row
without the N x N class matrix, and ``validate_scheme`` certifies the p
table that the space carries, the one the quotient and bounds read."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab.cli import main
from test_family_spaces import FAMILIES


@pytest.mark.parametrize("k, i, j", [(1, 1, 1), (3, 2, 2), (2, 3, 1)],
                         ids=["relation-1 layer", "other layer", "i > j"])
def test_validate_rejects_a_wrong_carried_p(k, i, j):
    h = dl.hamming(3, 2)
    p = h.intersection_numbers.copy()
    p[k, i, j] += 1
    report = dl.validate_scheme(dataclasses.replace(h, intersection_numbers=p))
    assert not report.valid
    witness = f"p^{k}_{{{i},{j}}} is {p[k, i, j]}, but pair (0,"
    assert report.failures[0].startswith(witness)


def test_validate_rejects_a_carried_p_of_another_shape():
    h = dl.hamming(3, 2)
    p = h.intersection_numbers[:3, :3, :3]
    report = dl.validate_scheme(dataclasses.replace(h, intersection_numbers=p))
    assert not report.valid and "shape" in report.failures[0]


def test_validate_rejects_p_on_a_class_that_does_not_occur():
    # H(2,2) labelled with classes 0..3, class 3 empty: its p^3 must be 0
    h = dl.hamming(2, 2)
    p = np.zeros((4, 4, 4), dtype=int)
    p[:3, :3, :3] = h.intersection_numbers
    space = dl.Space(kind="scheme", n_vertices=4, n_classes=3, classes=h.classes,
                     valencies=np.array([1, 2, 1, 0]), intersection_numbers=p)
    assert dl.validate_scheme(space).valid
    p[3, 1, 2] = 1
    report = dl.validate_scheme(space)
    assert not report.valid
    assert report.failures == ["class 3 does not occur, but p^3_ij is not 0"]


def test_scheme_file_load_builds_p_once(tmp_path, monkeypatch):
    path = tmp_path / "j83.txt"
    dl.save_space(dl.johnson(8, 3), str(path))
    calls = []
    build = dl.spaces._intersection_numbers

    def counting(row_of, m):
        calls.append(m)
        return build(row_of, m)

    monkeypatch.setattr(dl.spaces, "_intersection_numbers", counting)
    space = dl.load_space(str(path))
    assert calls == [3]
    assert np.array_equal(space.intersection_numbers,
                          dl.johnson(8, 3).intersection_numbers)


def count_calls(monkeypatch, *names):
    """Record the arguments of each call through these ``spaces`` globals."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(*args, name=name, inner=getattr(dl.spaces, name)):
            calls[name].append(args)
            return inner(*args)
        monkeypatch.setattr(dl.spaces, name, counting)
    return calls


@pytest.mark.parametrize("w", [3, 4])
def test_scheme_file_load_checks_each_fact_once(tmp_path, monkeypatch, w):
    path = tmp_path / f"j8{w}.txt"
    dl.save_space(dl.johnson(8, w), str(path))
    p = dl.johnson(8, w).intersection_numbers
    calls = count_calls(monkeypatch, "_class_counts", "_p_layers", "validate_scheme",
                        "component_labels")
    for r in range(1, w + 1):
        for found in calls.values():
            found.clear()
        if (w, r) == (4, 4):
            with pytest.raises(dl.SchemeError) as info:
                dl.load_space(str(path), laplacian_class=r)
            assert str(info.value) == (f"{path}: relation class 4 is disconnected "
                                       "(35 components); pick another --relation")
        else:
            space = dl.load_space(str(path), laplacian_class=r)
            assert np.array_equal(space.intersection_numbers, p)
        counted = {name: len(found) for name, found in calls.items()}
        assert counted == {"_class_counts": 1, "_p_layers": 1, "validate_scheme": 1,
                           "component_labels": 1}, r
        assert calls["component_labels"][0][0].shape == (w + 1, w + 1)


def test_graph_file_load_keeps_its_vertex_level_checks(tmp_path, monkeypatch):
    path = tmp_path / "c8.txt"
    path.write_text("graph 8\n" + "".join(f"edge {v} {(v + 1) % 8}\n" for v in range(8)))
    calls = count_calls(monkeypatch, "_class_counts", "_p_layers", "validate_scheme",
                        "component_labels")
    assert dl.load_space(str(path)).kind == "graph"
    assert {name: len(found) for name, found in calls.items()} == {
        "_class_counts": 1, "_p_layers": 0, "validate_scheme": 0, "component_labels": 1}
    assert calls["component_labels"][0][0].shape == (8, 8)


def test_an_irregular_scheme_file_names_an_out_of_range_relation(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("scheme 3 2\nrel 0 1 1\nrel 1 2 1\nrel 0 2 2\n")
    assert main(["space", "info", f"file:{path}", "--relation", "5"]) == 1
    assert capsys.readouterr().out == (
        f"error: {path}: laplacian class 5 out of range 1..2\n")


def test_validation_reports_the_space_own_p():
    for h in (dl.hamming(4, 2), dl.johnson(7, 3), dl.cycle(9)):
        report = dl.validate_scheme(h)
        assert report.valid and report.intersection_numbers is h.intersection_numbers


def test_sphere_unions_build_no_class_matrix():
    # the 2048 x 2048 int16 class matrix of H(11,2) alone is 8 MiB
    h = dl.hamming(11, 2)
    spec = dl.spectral_decomposition(h)
    dl.spherical_subset_eigen(dl.hamming(3, 2), 0, [0, 1])   # warm-up
    tracemalloc.start()
    try:
        eig = dl.spherical_subset_eigen(h, 0, [0, 1, 2])
        report = dl.design_bound(h, spec, 5.0, spheres=[0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert callable(vars(h)["classes"])
    assert peak < 4 * 2 ** 20
    assert len(eig.omega) == 1 + 11 + 55 and report.vol_omega == 12
    assert report.lam == pytest.approx(11 - np.sqrt(11))


@pytest.mark.parametrize("make, args", FAMILIES,
                         ids=[f"{make.__name__}{args}" for make, args in FAMILIES])
def test_rows_are_the_class_matrix_rows(make, args):
    space = make(*args)
    n = space.n_vertices
    picks = [[0], [n - 1], np.random.default_rng(n).integers(0, n, 3)]
    before = [space.rows(xs) for xs in picks]
    assert callable(vars(space)["classes"])             # rows built no matrix
    classes = space.classes
    for xs, row in zip(picks, before):
        for got in (row, space.rows(xs)):
            assert got.dtype == classes.dtype and np.array_equal(got, classes[xs])


def test_rows_follow_a_replaced_class_matrix():
    h = dl.hamming(3, 2)
    other = dl.cycle(8).classes
    assert np.array_equal(dataclasses.replace(h, classes=other).rows([2]), other[[2]])


@pytest.mark.parametrize("name, text, message", [
    ("p4.txt", "graph 4\nedge 0 1\nedge 1 2\nedge 2 3\n",
     "space is not regular: witness vertex 1"),
    ("triangles.txt",
     "graph 6\nedge 0 1\nedge 1 2\nedge 0 2\nedge 3 4\nedge 4 5\nedge 3 5\n",
     "relation class 1 is disconnected (2 components); pick another --relation"),
    ("p3.txt", "scheme 3 2\nrel 0 1 1\nrel 1 2 1\nrel 0 2 2\n",
     "scheme axiom violation: valency of class 1 not constant: witness vertex 1"),
    ("triangles_scheme.txt",
     "scheme 6 2\n" + "".join(f"rel {u} {v} {1 if u // 3 == v // 3 else 2}\n"
                              for u in range(6) for v in range(u + 1, 6)),
     "relation class 1 is disconnected (2 components); pick another --relation"),
])
def test_load_errors_name_their_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(dl.SchemeError) as info:
        dl.load_space(str(path))
    assert str(info.value) == f"{path}: {message}"
