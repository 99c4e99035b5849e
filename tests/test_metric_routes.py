"""Metric schemes: scheme validation and isometry checks over relation 1.

When p says that the class of a pair is its distance in relation 1
(``spaces.is_metric``), ``validate_scheme`` checks one layer of p at every
pair instead of every product A_i A_j, and ``designs._validate_action``
checks the relation-1 edges instead of all N^2 pairs.  Both must give the
same reports, faults and witnesses as the pair-by-pair routes, and both must
reject any single corrupted pair or image on their own.
"""

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import designlab as dl
from designlab import designs, spaces
from designlab.cli import main
from conftest import FANO_BLOCKS, extended_hamming_code
from test_ball_sweep import cube8, petersen
from test_family_spaces import FAMILIES


@contextlib.contextmanager
def full_routes():
    """Every check on its pair-by-pair route: no p counts as metric."""
    with mock.patch.object(spaces, "is_metric", lambda p: False), \
            mock.patch.object(designs, "is_metric", lambda p: False):
        yield


def assert_same_report(got, want):
    assert (got.valid, got.failures) == (want.valid, want.failures)
    if want.intersection_numbers is None:
        assert got.intersection_numbers is None
    else:
        assert got.intersection_numbers.dtype == want.intersection_numbers.dtype
        assert np.array_equal(got.intersection_numbers, want.intersection_numbers)


def write_scheme(path, classes):
    n = len(classes)
    u, v = np.triu_indices(n, 1)
    path.write_text(f"scheme {n} {classes.max()}\n" + "".join(
        f"rel {a} {b} {c}\n" for a, b, c in zip(u, v, classes[u, v])))
    return str(path)


def relabelled_file(tmp_path, space, seed):
    """``space`` as a scheme file with vertex v renamed to perm[v]."""
    perm = np.random.default_rng(seed).permutation(space.n_vertices)
    inv = np.argsort(perm)
    path = write_scheme(tmp_path / f"{space.kind}{space.n_vertices}.txt",
                        space.classes[np.ix_(inv, inv)])
    return dl.load_space(path), perm


def action_faults(space, design, origin, perms):
    """(index, reason) on the chosen route and on the N^2 route."""
    fast = designs._validate_action(space, design, origin, perms)
    with full_routes():
        return fast, designs._validate_action(space, design, origin, perms)


def sending(perm, y, origin=0):
    """``perm`` with two images swapped so that it sends y to the origin."""
    perm = perm.copy()
    k = int(np.flatnonzero(perm == origin)[0])
    perm[[k, y]] = perm[[y, k]]
    return perm


def corrupted_actions(perms, points, seed):
    """The valid permutations, then each block corrupted in turn: by a swap
    of two images, by one changed image, and by a random permutation."""
    rng = np.random.default_rng(seed)
    n = perms.shape[1]
    yield perms
    for i, y in enumerate(points):
        x, z = rng.choice(n, 2, replace=False)
        swap, one, other = perms.copy(), perms.copy(), perms.copy()
        swap[i, [x, z]] = swap[i, [z, x]]
        one[i, x] = perms[i, z]
        other[i] = sending(rng.permutation(n), y)
        yield from (swap, one, other)


def check_actions(space, design, perms, seed=0):
    for candidate in corrupted_actions(perms, design.points, seed):
        fast, full = action_faults(space, design, 0, candidate)
        assert fast == full


# ---------------------------------------------------------------------------
# the metric routes against the pair-by-pair routes


@pytest.mark.parametrize("make, args", FAMILIES,
                         ids=[f"{make.__name__}{args}" for make, args in FAMILIES])
def test_family_reports_match_the_full_route(make, args):
    base = make(*args)
    with full_routes():
        want = dl.validate_scheme(base)
    assert want.valid
    for r in range(1, base.n_classes + 1):
        try:
            space = make(*args, laplacian_class=r)
        except dl.SchemeError:
            continue                           # a disconnected relation
        assert_same_report(dl.validate_scheme(space), want)
    n = base.n_vertices
    design = dl.make_design(sorted({0, n // 3, n - 1}))
    check_actions(base, design, dl.translations_to_origin(base, design).permutations)


@pytest.mark.parametrize("make, args, seed", [
    (dl.cycle, (96,), 1), (dl.hamming, (7, 2), 2), (dl.johnson, (10, 4), 3),
    (dl.hamming, (5, 3), 4), (dl.hamming, (9, 2), 5)])
def test_relabelled_scheme_files_match_the_full_route(tmp_path, make, args, seed):
    base = make(*args)
    space, perm = relabelled_file(tmp_path, base, seed)
    assert spaces.is_metric(space.intersection_numbers)
    report = dl.validate_scheme(space)
    with full_routes():
        assert_same_report(report, dl.validate_scheme(space))
    # file vertex perm[v] is vertex v: conjugate the built-in translations
    inv = np.argsort(perm)
    points = np.array([0, 5, base.n_vertices - 1])
    moves = dl.translations_to_origin(base, dl.make_design(points), int(inv[0]))
    order = np.argsort(perm[points])
    check_actions(space, dl.make_design(perm[points]),
                  perm[moves.permutations[:, inv]][order], seed)


@pytest.mark.parametrize("load", [petersen, cube8])
def test_graph_files_match_the_full_route(tmp_path, load):
    space = load(tmp_path / "g.txt")
    report = dl.validate_scheme(space)
    with full_routes():
        assert_same_report(report, dl.validate_scheme(space))
    assert report.valid == (load is petersen)   # H(8,2) has 8 classes, not 2
    n = space.n_vertices
    shuffled = sending(np.random.default_rng(7).permutation(n), 1)
    perms = np.array([np.arange(n), shuffled])
    check_actions(space, dl.make_design([0, 1]), perms)


def test_c6_as_two_classes_names_the_same_pair():
    c6 = dl.cycle(6)
    space = dataclasses.replace(c6, kind="scheme", n_classes=2,
                                classes=np.minimum(c6.classes, 2),
                                intersection_numbers=None)
    report = dl.validate_scheme(space)
    with full_routes():
        assert_same_report(report, dl.validate_scheme(space))
    assert report.failures[0] == ("p^2_{1,1} not constant: witness triple "
                                  "(i=1, j=1, k=2) at pair (0,3)")


# ---------------------------------------------------------------------------
# one corruption: the metric checks alone reject it, the verdicts agree

# no two vertices with the same neighbours, so no swap of two images is an
# automorphism
TWIN_FREE = [dl.hamming(3, 2), dl.hamming(2, 3), dl.johnson(5, 2),
             dl.johnson(6, 3), dl.cycle(7), dl.cycle(8)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_corrupted_pair_is_rejected(data):
    space = data.draw(st.sampled_from(TWIN_FREE))
    n, m = space.n_vertices, space.n_classes
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1).filter(lambda v: v != x))
    c = data.draw(st.integers(1, m).filter(lambda c: c != space.classes[x, y]))
    classes = space.classes.copy()
    classes[x, y] = classes[y, x] = c
    assert not spaces._metric_layer_holds(classes, space.intersection_numbers)
    bad = dataclasses.replace(space, classes=classes)
    report = dl.validate_scheme(bad)
    assert not report.valid
    with full_routes():
        assert_same_report(report, dl.validate_scheme(bad))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_switch_that_keeps_valencies_gets_the_same_verdict(data):
    # (x,y), (z,w) in class a and (x,w), (z,y) in class b trade classes: every
    # valency stays, so only the metric layer or the products can see it
    space = data.draw(st.sampled_from(TWIN_FREE))
    cls = space.classes
    n = space.n_vertices
    x, y, z = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    a, b = cls[x, y], cls[z, y]
    ws = np.flatnonzero((cls[z] == a) & (cls[x] == b))
    ws = ws[~np.isin(ws, [x, y, z])]
    assume(len({x, y, z}) == 3 and 0 not in (a, b) and a != b and len(ws))
    w = data.draw(st.sampled_from(ws.tolist()))
    classes = cls.copy()
    for (u, v), c in {(x, y): b, (z, w): b, (x, w): a, (z, y): a}.items():
        classes[u, v] = classes[v, u] = c
    bad = dataclasses.replace(space, classes=classes)
    report = dl.validate_scheme(bad)
    with full_routes():
        assert_same_report(report, dl.validate_scheme(bad))
    holds = spaces._metric_layer_holds(classes, space.intersection_numbers)
    assert holds == report.valid


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_corrupted_image_is_rejected(data):
    space = data.draw(st.sampled_from(TWIN_FREE))
    n = space.n_vertices
    points = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=4))))
    origin = data.draw(st.integers(0, n - 1))
    design = dl.make_design(points)
    perms = dl.translations_to_origin(space, design, origin).permutations.copy()
    i = data.draw(st.integers(0, len(points) - 1))
    x = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda v: v != perms[i, x]))
    if data.draw(st.booleans()):                # swap two images: a bijection
        j = int(np.flatnonzero(perms[i] == v)[0])
        perms[i, [x, j]] = perms[i, [j, x]]
        assert not designs._edge_check(space.classes)(perms[i])
        assert not designs._pair_check(space.classes)(perms[i])
    else:                                       # change one image
        perms[i, x] = v
    fast, full = action_faults(space, design, origin, perms)
    assert fast == full and fast[0] == i


# ---------------------------------------------------------------------------
# classes numbered out of distance order take the full routes


def test_renumbered_classes_take_the_full_route(tmp_path, monkeypatch):
    j84 = dl.johnson(8, 4)
    swap = np.array([0, 2, 1, 3, 4])                  # classes 1 <-> 2
    path = write_scheme(tmp_path / "j84.txt", swap[j84.classes])
    design = dl.make_design([0, 17, 69])
    perms = dl.translations_to_origin(j84, design).permutations

    def boom(*args):
        raise AssertionError("metric route taken")
    monkeypatch.setattr(spaces, "_metric_layer_holds", boom)
    monkeypatch.setattr(designs, "_edge_check", boom)
    space = dl.load_space(path)
    p = space.intersection_numbers
    assert not spaces.is_metric(p)
    assert np.array_equal(p, j84.intersection_numbers[np.ix_(swap, swap, swap)])
    assert dl.validate_scheme(space).valid
    assert designs._validate_action(space, design, 0, perms) is None


# ---------------------------------------------------------------------------
# metric files and built-ins never reach the pair-by-pair routes


@pytest.fixture
def no_pair_routes(monkeypatch):
    def boom(*args):
        raise AssertionError("pair-by-pair route taken")
    monkeypatch.setattr(spaces, "_product_failures", boom)
    monkeypatch.setattr(designs, "_pair_check", boom)


@pytest.mark.parametrize("make, args", [
    (dl.cycle, (96,)), (dl.hamming, (7, 2)), (dl.johnson, (10, 4)),
    (dl.hamming, (5, 3))])
def test_scheme_files_take_the_metric_route(tmp_path, no_pair_routes, make, args):
    space, _ = relabelled_file(tmp_path, make(*args), 11)
    assert space.n_vertices == make(*args).n_vertices


@pytest.mark.parametrize("space, points", [
    (dl.hamming(8, 2), extended_hamming_code()),
    (dl.hamming(9, 2), range(0, 512, 3)),
    (dl.johnson(7, 3), [dl.johnson(7, 3).labels.index(b) for b in FANO_BLOCKS]),
    (dl.cycle(24), [0, 5, 13, 22]),
    (dl.cycle(7), [3])], ids=["H(8,2)", "H(9,2)", "J(7,3)", "C(24)", "C(7)"])
def test_isometries_take_the_edge_route(tmp_path, no_pair_routes, space, points):
    design = dl.make_design(points)
    action = dl.translations_to_origin(space, design)
    assert action.validated
    path = tmp_path / "iso.txt"
    path.write_text("".join(f"perm {space.n_vertices}\n"
                            + "".join(f"{v}\n" for v in perm)
                            for perm in action.permutations))
    loaded = dl.load_isometries(str(path), space, design)
    assert loaded.validated
    assert np.array_equal(loaded.permutations, action.permutations)


# ---------------------------------------------------------------------------
# large cycles: an error before anything is allocated


@pytest.mark.parametrize("n, message", [
    (5000, "cycle(5000) has 5000 vertices > cap 4096"),
    (2048, "p^k_ij for m = 1024 needs 8.0 GiB > cap 4 GiB"),
])
def test_large_cycle_is_an_error_not_a_memory_traceback(capsys, n, message):
    tracemalloc.start()
    try:
        code = main(["spectrum", f"cycle:n={n}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out == f"error: {message}\n"
    assert peak < 16 * 2 ** 20


def test_p_table_cap_admits_cycle_1024():
    class Reached(Exception):
        pass

    def row_of(xs):
        raise Reached

    with pytest.raises(Reached):            # past the size check: C(1024)'s m
        spaces._intersection_numbers(row_of, 512)
    with pytest.raises(dl.SchemeError, match="> cap 4 GiB"):
        spaces._intersection_numbers(row_of, 812)
