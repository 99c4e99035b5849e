"""Built-in families from their intersection arrays.

``hamming``, ``johnson`` and ``cycle`` form their valencies and their
relation-1 layer B_1 = p[:, 1, :] from the closed-form array
{b_0, ..., b_{m-1}; c_1, ..., c_m}, and build the (m+1)^3 p table and the
vertex tables only when something reads them.  The oracle is the rows
route: the p that ``spaces._intersection_numbers`` reads off m+2 class-matrix
rows, carried by a ``dataclasses.replace`` copy, which has no ``_layer1`` and
so reads every layer from that p.  Every scheme-level answer must be bit for
bit the same on both routes.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab import spaces
from designlab.cli import main
from designlab.spectra import ball_eigenvalues

HAMMING = [(n, q) for q in range(2, 6) for n in range(1, 13) if q ** n <= spaces.SIZE_CAP]
JOHNSON = [(n, w) for n in range(2, 17) for w in range(1, n // 2 + 1)
           if math.comb(n, w) <= spaces.SIZE_CAP]
CYCLE = list(range(3, 301))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rows_route(space):
    """The p read off m+2 rows, and a copy of ``space`` that reads it."""
    p = spaces._intersection_numbers(space.rows, space.n_classes)
    held = vars(space)
    return p, dataclasses.replace(space, classes=held["classes"], labels=held["labels"],
                                  intersection_numbers=p)


def check_against_rows_route(space):
    m = space.n_classes
    p, oracle = rows_route(space)
    assert oracle._layer1 is None
    assert same_bits(space._layer1, p[:, 1, :])
    assert same_bits(space.valencies, p[0].diagonal())
    assert callable(vars(space)["intersection_numbers"])
    assert same_bits(space.intersection_numbers, p)
    for r in range(m + 1):
        for got, want in zip(dl.quotient_matrix(space, range(r + 1)),
                             dl.quotient_matrix(oracle, range(r + 1))):
            assert same_bits(got, want)
    got, want = dl.spectral_decomposition(space), dl.spectral_decomposition(oracle)
    for name in ("eigenvalues", "multiplicities", "zonal"):
        assert same_bits(getattr(got, name), getattr(want, name))
    assert ball_eigenvalues(space, 0) == ball_eigenvalues(oracle, 0)


@pytest.mark.parametrize("n, q", HAMMING)
def test_hamming_array_matches_the_rows_route(n, q):
    check_against_rows_route(dl.hamming(n, q))


@pytest.mark.parametrize("n, w", JOHNSON)
def test_johnson_array_matches_the_rows_route(n, w):
    check_against_rows_route(dl.johnson(n, w))


@pytest.mark.parametrize("n", CYCLE)
def test_cycle_array_matches_the_rows_route(n):
    check_against_rows_route(dl.cycle(n))


# ---------------------------------------------------------------------------
# relations other than 1 read p: the same quotients and the same errors


def component_count(space, r) -> int:
    """Components of relation r, from the dense class matrix."""
    return len(np.unique(spaces.component_labels(space.rows(np.arange(space.n_vertices)) == r)))


@pytest.mark.parametrize("make, args", [(dl.cycle, (n,)) for n in range(5, 13)]
                         + [(dl.hamming, (n, q)) for n in range(3, 6) for q in (2, 3)])
def test_other_relations_match_the_rows_route(make, args):
    base = make(*args)
    m = base.n_classes
    for r in range(2, m + 1):
        parts = component_count(base, r)
        if parts != 1:
            with pytest.raises(dl.SchemeError) as exc:
                make(*args, laplacian_class=r)
            assert str(exc.value) == (f"relation class {r} is disconnected "
                                      f"({parts} components); pick another --relation")
            continue
        space = make(*args, laplacian_class=r)
        assert not callable(vars(space)["intersection_numbers"])  # its check read p
        _, oracle = rows_route(space)
        for radius in range(m + 1):
            for got, want in zip(dl.quotient_matrix(space, range(radius + 1)),
                                 dl.quotient_matrix(oracle, range(radius + 1))):
                assert same_bits(got, want)


# ---------------------------------------------------------------------------
# scheme-level answers build nothing at vertex level


@pytest.fixture
def p_builds(monkeypatch):
    """The calls of ``spaces._intersection_numbers``, which builds p."""
    calls = []
    build = spaces._intersection_numbers
    monkeypatch.setattr(spaces, "_intersection_numbers",
                        lambda *args: calls.append(args) or build(*args))
    return calls


@pytest.mark.parametrize("spec", ["hamming:n=10,q=2", "johnson:n=12,w=5", "cycle:n=192"])
def test_scheme_level_answers_build_no_p_and_no_vertex_tables(p_builds, spec):
    space = dl.build_named_space(spec)
    sd = dl.spectral_decomposition(space, 3)
    for t in (0.5, 2.0, float(sd.eigenvalues[-1])):
        dl.design_bound_auto(space, sd, t)
    dl.spherical_subset_eigen(space, 3, range(3))
    held = vars(space)
    assert callable(held["classes"]) and callable(held["intersection_numbers"])
    assert callable(held["labels"]) or (space.kind == "cycle" and held["labels"] is None)
    assert p_builds == []


@pytest.mark.parametrize("make, args", [(dl.hamming, (6, 2)), (dl.johnson, (9, 4)),
                                        (dl.cycle, (40,))])
def test_translations_to_origin_build_no_p(p_builds, make, args):
    space = make(*args)
    n = space.n_vertices
    assert dl.translations_to_origin(space, dl.make_design([0, 1, n - 1])).validated
    assert p_builds == [] and callable(vars(space)["intersection_numbers"])


def test_labels_and_translations_are_built_on_first_read():
    j = dl.johnson(6, 3)
    assert callable(vars(j)["labels"])
    assert j.labels[:4] == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))   # colex
    h = dl.hamming(3, 3)
    assert callable(vars(h)["labels"])
    assert h.labels[5] == (2, 1, 0)
    assert h.translation(5, 0).tolist()[5] == 0


# sha256 of the stdout of `bound cycle:n=1024 --t 0.01 --auto` as the rows
# route printed it: 515 lines, the last "best  0.003383683457463668  53
# 12.783222904824914  false"
C1024_BOUND_SHA256 = "5ae53d3a70bfdfc287aa85eb6d2910b765b0ffdbc8c3e6d74731edca4820bc5c"


def test_bound_on_c1024_needs_no_p_table(capsys):
    tracemalloc.start()
    try:
        code = main(["bound", "cycle:n=1024", "--t", "0.01", "--auto"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == C1024_BOUND_SHA256
    assert peak < 64 * 2 ** 20              # the rows route's p alone is 1.1 GB


@pytest.mark.parametrize("argv, line", [
    (["space", "info", "cycle:n=4", "--relation", "2"],
     "error: relation class 2 is disconnected (2 components); pick another --relation"),
    (["bound", "johnson:n=8,w=4", "--t", "3", "--auto", "--relation", "4"],
     "error: relation class 4 is disconnected (35 components); pick another --relation"),
    (["space", "info", "hamming:n=99999999999999999999,q=2"],
     "error: hamming(99999999999999999999,2) has more vertices than the cap 4096"),
])
def test_error_lines_do_not_move(capsys, argv, line):
    assert main(argv) == 1
    assert capsys.readouterr().out == line + "\n"
