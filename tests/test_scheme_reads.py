"""Scheme-level reads come from the space: ``Space.rows`` serves one row
without the N x N class matrix, and ``validate_scheme`` certifies the p
table that the space carries, the one the quotient and bounds read."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import designlab as dl
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


def test_validation_reports_the_space_own_p():
    for h in (dl.hamming(4, 2), dl.johnson(7, 3), dl.cycle(9)):
        report = dl.validate_scheme(h)
        assert report.valid and report.intersection_numbers is h.intersection_numbers


def test_sphere_unions_build_no_class_matrix():
    # the 2048 x 2048 int64 class matrix of H(11,2) alone is 32 MB
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
])
def test_load_errors_name_their_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(dl.SchemeError) as info:
        dl.load_space(str(path))
    assert str(info.value) == f"{path}: {message}"
