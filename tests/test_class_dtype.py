"""Class matrices are int16 (``spaces.CLASS_DTYPE``), and give the same answers
as int64.

Every space here is also run as a copy whose class matrix is int64, with the
same carried relation-1 layer, so that the two differ only in the dtype:
validation reports on valid and corrupted matrices, class counts, neighbour
tables, isometry checks, eigenspace components and dense subset eigenvalues
must all agree, bit for bit.  C(400) and C(401) have m = 200, so (m+1)^2
passes the int16 range in the p-table read.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab.cli import main
from designlab.designs import _validate_action
from designlab.spaces import (CLASS_DTYPE, _class_counts, _intersection_numbers,
                              _neighbours)


def with_classes(space: dl.Space, classes: np.ndarray) -> dl.Space:
    """A copy of ``space`` with ``classes``, carrying the same relation-1 layer."""
    copy = dataclasses.replace(space, classes=classes)
    object.__setattr__(copy, "_layer1", space._layer1)
    return copy


def wide(space: dl.Space) -> dl.Space:
    return with_classes(space, space.classes.astype(np.int64))


def cycle_graph_file(path, n: int) -> str:
    path.write_text(f"graph {n}\n" + "".join(f"edge {v} {(v + 1) % n}\n"
                                            for v in range(n)))
    return str(path)


@pytest.fixture(scope="module")
def spaces(tmp_path_factory):
    """(name, space, family) triples: each family, and loaded files, with the
    family whose translations are isometries of the file."""
    tmp = tmp_path_factory.mktemp("class_dtype")
    out = []
    for family in (dl.hamming(6, 2), dl.hamming(3, 3), dl.johnson(8, 3),
                   dl.cycle(9), dl.cycle(10)):
        out.append((family.kind, family, family))
    for name, family in (("h52", dl.hamming(5, 2)), ("j73", dl.johnson(7, 3)),
                         ("c11", dl.cycle(11))):
        dl.save_space(family, str(tmp / f"{name}.txt"))
        out.append((f"file {name}", dl.load_space(str(tmp / f"{name}.txt")), family))
    graph = dl.load_space(cycle_graph_file(tmp / "c8.txt", 8))
    out.append(("graph c8", graph, dl.cycle(8)))
    return out


def corruptions(classes: np.ndarray, m: int):
    """Copies of ``classes`` that break one scheme axiom each."""
    out = classes.copy()
    out[0, 1] = out[1, 0] = m + 1               # outside 0..m
    yield out
    out = classes.copy()
    out[2, 2] = 1                               # diagonal not 0
    yield out
    out = classes.copy()
    out[0, 1] = out[1, 0] = 0                   # off-diagonal 0
    yield out
    out = classes.copy()
    out[0, 1] = out[0, 1] % m + 1               # not symmetric
    yield out
    out = classes.copy()
    out[0, 1] = out[1, 0] = out[0, 1] % m + 1   # valency not constant
    yield out


def same_report(a: dl.ValidationReport, b: dl.ValidationReport) -> bool:
    pa, pb = a.intersection_numbers, b.intersection_numbers
    return (a.valid == b.valid and a.failures == b.failures
            and (pa is None) == (pb is None) and (pa is None or np.array_equal(pa, pb)))


def test_validation_reports_match_int64(spaces):
    for name, space, _ in spaces:
        assert space.classes.dtype == CLASS_DTYPE, name
        m = space.n_classes
        report = dl.validate_scheme(space)
        assert same_report(report, dl.validate_scheme(wide(space))), name
        assert report.valid == space.is_scheme, name
        for bad in corruptions(space.classes, m):
            mine = dl.validate_scheme(with_classes(space, bad))
            theirs = dl.validate_scheme(with_classes(space, bad.astype(np.int64)))
            assert not mine.valid and same_report(mine, theirs), (name, mine.failures)
        if space.intersection_numbers is not None:   # a carried p that is wrong
            p = space.intersection_numbers.copy()
            p[1, 1, 1] += 1
            mine = dl.validate_scheme(dataclasses.replace(space, intersection_numbers=p))
            theirs = dl.validate_scheme(
                dataclasses.replace(wide(space), intersection_numbers=p))
            assert not mine.valid and same_report(mine, theirs), name


def test_counts_and_neighbours_match_int64(spaces):
    for name, space, _ in spaces:
        classes, m = space.classes, space.n_classes
        assert np.array_equal(_class_counts(classes, m),
                              _class_counts(classes.astype(np.int64), m)), name
        for r in range(m + 1):
            mine, theirs = _neighbours(classes, r), _neighbours(classes.astype(np.int64), r)
            assert (mine is None) == (theirs is None), (name, r)
            assert mine is None or np.array_equal(mine, theirs), (name, r)
        bad = classes.copy()
        bad[0, 1] = bad[1, 0] = bad[0, 1] % m + 1
        assert _neighbours(bad, 1) is None and _neighbours(bad.astype(np.int64), 1) is None
        assert np.array_equal(_class_counts(bad, m), _class_counts(bad.astype(np.int64), m))


def test_isometry_checks_match_int64(spaces):
    for name, space, family in spaces:
        design = dl.make_design(np.arange(0, space.n_vertices, 3))
        perms = np.array([family.translation(y, 0) for y in design.points])
        broken = perms.copy()
        broken[1, [1, 2]] = broken[1, [2, 1]]       # swaps two images: no isometry
        stray = perms.copy()
        stray[2] = np.roll(stray[2], 1)              # a permutation, not at the origin
        twice = perms.copy()
        twice[1, 3] = twice[1, 4]                    # not a permutation
        for case in (perms, broken, stray, twice):
            mine = _validate_action(space, design, 0, case)
            assert mine == _validate_action(wide(space), design, 0, case), name
        assert _validate_action(space, design, 0, perms) is None, name
        assert _validate_action(space, design, 0, broken)[0] == 1, name


def test_components_and_subset_eigen_bit_identical(spaces):
    rng = np.random.default_rng(7)
    for name, space, _ in spaces:
        other = wide(space)
        n = space.n_vertices
        ours, theirs = dl.spectral_decomposition(space), dl.spectral_decomposition(other)
        for w in (np.arange(n) % 3 == 0, rng.standard_normal(n)):
            w = w.astype(float)
            assert np.array_equal(ours.components(w), theirs.components(w)), name
        omega = np.flatnonzero(space.rows([0])[0] <= 1)
        for subset in (omega, np.arange(0, n, 2)):
            mine, ref = dl.subset_eigen(space, subset), dl.subset_eigen(other, subset)
            assert mine.value == ref.value, name
            assert np.array_equal(mine.eigenfunction, ref.eigenfunction), name


@pytest.mark.parametrize("n", [400, 401])
def test_p_table_past_int16_squares(n, capsys):
    space = dl.cycle(n)
    m = space.n_classes
    assert m == 200 and (m + 1) ** 2 > np.iinfo(CLASS_DTYPE).max
    assert space.rows(np.arange(2)).dtype == CLASS_DTYPE
    p = space.intersection_numbers                  # read from int16 rows
    assert np.array_equal(p, _intersection_numbers(
        space.classes.astype(np.int64).__getitem__, m))
    del p
    for argv in (["space", "validate", f"cycle:n={n}", "--format", "csv"],
                 ["spectrum", f"cycle:n={n}", "--relation", "3", "--format", "csv"]):
        assert main(argv) == 0, argv
        assert not capsys.readouterr().out.startswith("error:")


def test_built_and_loaded_class_matrices_are_int16(tmp_path):
    for family in (dl.hamming(4, 3), dl.johnson(9, 4), dl.cycle(12)):
        before = family.rows(np.array([0, 5]))      # from the builder
        assert before.dtype == CLASS_DTYPE, family.kind
        assert family.classes.dtype == CLASS_DTYPE, family.kind
        after = family.rows(np.array([0, 5]))       # from the built matrix
        assert after.dtype == CLASS_DTYPE and np.array_equal(before, after), family.kind
    dl.save_space(dl.johnson(7, 2), str(tmp_path / "j72.txt"))
    assert dl.load_space(str(tmp_path / "j72.txt")).classes.dtype == CLASS_DTYPE
    graph = cycle_graph_file(tmp_path / "c7.txt", 7)
    assert dl.load_space(graph).classes.dtype == CLASS_DTYPE


def test_strength_at_the_cap_builds_an_int16_matrix():
    # the 4096 x 4096 class matrix is 32 MiB as int16 (128 MiB as int64), and
    # the components' column blocks add about 16 MiB
    space = dl.hamming(12, 2)
    spec = dl.spectral_decomposition(space)
    design = dl.make_design([x for x in range(4096) if bin(x).count("1") % 2 == 0])
    tracemalloc.start()
    try:
        report = dl.design_strength(space, spec, design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not callable(vars(space)["classes"])     # built inside the traced region
    assert report.strength == 24.0
    assert peak < 64 * 2 ** 20


def test_validation_at_the_cap_holds_one_mask():
    space = dl.hamming(12, 2)
    space.classes                                   # built before tracing starts
    tracemalloc.start()
    try:
        report = dl.validate_scheme(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 24 * 2 ** 20
