"""The metric layer check counts each pair's up and down steps.

``spaces._metric_layer_holds(classes, p)`` reads the k_1 relation-1
neighbours z of every vertex x and, for every y with k = c(x, y), requires
c(z, y) - k in {-1, 0, 1}, with p^k_{1,k+1} steps up and p^k_{1,k-1} down.
On every single corrupted pair it must agree with the all-pairs product
check, a vertex with the wrong number of relation-1 neighbours is a False
verdict, not an error, and the verdicts do not depend on how the rows are
chunked.  ``validate_scheme`` holds no second copy of the class matrix.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab import spaces

SMALL = [dl.hamming(3, 2), dl.hamming(2, 3), dl.johnson(5, 2),
         dl.johnson(6, 3), dl.cycle(7), dl.cycle(8)]
IDS = ["H(3,2)", "H(2,3)", "J(5,2)", "J(6,3)", "C(7)", "C(8)"]


def corruptions(space):
    """The class matrix with one pair x < y moved to each other class."""
    n, m = space.n_vertices, space.n_classes
    for x in range(n):
        for y in range(x + 1, n):
            for c in range(m + 1):
                if c != space.classes[x, y]:
                    classes = space.classes.copy()
                    classes[x, y] = classes[y, x] = c
                    yield classes


@pytest.mark.parametrize("space", SMALL, ids=IDS)
def test_every_corrupted_pair_agrees_with_the_products(space):
    p = space.intersection_numbers
    assert spaces._metric_layer_holds(space.classes, p)
    assert not spaces._product_failures(space.classes, p)
    for classes in corruptions(space):
        assert (spaces._metric_layer_holds(classes, p)
                == (not spaces._product_failures(classes, p)))


@pytest.mark.parametrize("space", SMALL, ids=IDS)
@pytest.mark.parametrize("both_ends", [True, False])
def test_wrong_relation_1_degree_is_false(space, both_ends):
    p = space.intersection_numbers
    row = space.classes[0]
    for old, new in ((1, 2), (2, 1)):           # k_1 - 1 and k_1 + 1 neighbours
        y = int(np.flatnonzero(row == old)[0])
        classes = space.classes.copy()
        classes[0, y] = new
        if both_ends:
            classes[y, 0] = new
        degrees = (classes == 1).sum(axis=1)
        assert degrees[0] == p[0, 1, 1] + (1 if new == 1 else -1)
        assert not spaces._metric_layer_holds(classes, p)


@pytest.mark.parametrize("space", SMALL, ids=IDS)
def test_verdicts_do_not_depend_on_the_chunks(space, monkeypatch):
    n, p = space.n_vertices, space.intersection_numbers
    k1 = int(p[0, 1, 1])
    matrices = [space.classes, *corruptions(space)]
    want = [spaces._metric_layer_holds(c, p) for c in matrices]
    # 1 row per chunk, 2 rows (the last chunk short for odd N), N - 1 rows
    for rows in (1, 2, n - 1):
        monkeypatch.setattr(spaces, "_CHUNK", 8 * rows * n * k1)
        assert [spaces._metric_layer_holds(c, p) for c in matrices] == want


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_a_step_of_two_is_false_where_the_counts_hold(rows, monkeypatch):
    # a matching as relation 1 and a p whose up and down counts every pair
    # meets; only |step| <= 1 rejects the steps 2 -> 4 of (0, 2) and
    # 4 -> 2 of (1, 2), under every numbering of the 4 vertices and chunking
    classes = np.array([[0, 1, 2, 3], [1, 0, 4, 3], [3, 3, 0, 1], [3, 3, 1, 0]])
    p = np.zeros((5, 5, 5), dtype=int)
    p[0, 1, 1] = p[1, 1, 0] = 1                 # b_0 = c_1 = k_1 = 1
    p[[2, 3, 4], 1, [2, 3, 4]] = 1              # the one neighbour stays level
    monkeypatch.setattr(spaces, "_CHUNK", 8 * rows * 4)
    for perm in itertools.permutations(range(4)):
        relabelled = classes[np.ix_(perm, perm)]
        assert not spaces._metric_layer_holds(relabelled, p)


def test_validation_holds_no_second_class_matrix():
    space = dl.hamming(10, 2)
    classes = space.classes                     # built before tracing starts
    tracemalloc.start()
    try:
        report = dl.validate_scheme(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 1.5 * classes.nbytes
