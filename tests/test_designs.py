import math

import numpy as np
import pytest

import designlab as dl
from conftest import FANO_BLOCKS, even_weight_code, extended_hamming_code

TOL = 1e-9


def test_make_design_validation():
    with pytest.raises(ValueError):
        dl.make_design([])
    with pytest.raises(ValueError):
        dl.make_design([1, 1])
    with pytest.raises(ValueError):
        dl.make_design([0], weights=[0])
    with pytest.raises(ValueError):
        dl.make_design([9], n_vertices=4)
    d = dl.make_design([2, 0], weights=[3, 1])
    assert list(d.points) == [0, 2]
    assert d.size == 4


def test_load_design(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("0\n3 2\n# comment\n5\n")
    d = dl.load_design(str(path), n_vertices=8)
    assert list(d.points) == [0, 3, 5]
    assert list(d.weights) == [1, 2, 1]


def test_load_design_checks_a_design_once(tmp_path, monkeypatch):
    path = tmp_path / "d.txt"
    path.write_text("5\n# comment\n0\n3 2\n")
    calls = []
    fault = dl.designs._design_fault

    def counting(*args):
        calls.append(args)
        return fault(*args)

    monkeypatch.setattr(dl.designs, "_design_fault", counting)
    d = dl.load_design(str(path), n_vertices=8)
    assert len(calls) == 1
    want = dl.make_design([5, 0, 3], [1, 1, 2], n_vertices=8)
    for got, expected in ((d.points, want.points), (d.weights, want.weights)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# verification and strength


def test_whole_space_is_design(h32, h32_spec):
    d = dl.make_design(range(8))
    ok, _ = dl.verify_design(h32, h32_spec, d, 100.0)
    assert ok


def test_even_code_strength(h32, h32_spec):
    d = dl.make_design(even_weight_code(h32))
    assert dl.verify_design(h32, h32_spec, d, 6)[0]
    assert not dl.verify_design(h32, h32_spec, d, 6.5)[0]
    assert dl.design_strength(h32, h32_spec, d).strength == pytest.approx(6)


def test_singleton_strength(c4, c4_spec):
    d = dl.make_design([0])
    assert dl.verify_design(c4, c4_spec, d, 2)[0]     # no eigenvalue in (0,2)
    assert dl.design_strength(c4, c4_spec, d).strength == pytest.approx(2)


def test_antipodal_pair_strength(c4, c4_spec):
    d = dl.make_design([0, 2])
    rep = dl.design_strength(c4, c4_spec, d)
    assert rep.strength == pytest.approx(4)


def test_whole_space_strength_sentinel(c4, c4_spec):
    rep = dl.design_strength(c4, c4_spec, dl.make_design(range(4)))
    assert rep.strength == math.inf


def test_strength_bound_consistency(j73, j73_spec):
    rng = np.random.default_rng(17)
    thetas = j73_spec.eigenvalues
    for _ in range(10):
        size = rng.integers(1, 12)
        pts = np.unique(rng.choice(j73.n_vertices, size=size, replace=False))
        d = dl.make_design(pts)
        tstar = dl.design_strength(j73, j73_spec, d).strength
        for t in list(thetas[1:]) + [thetas[-1] + 1]:
            ok, _ = dl.verify_design(j73, j73_spec, d, float(t))
            assert ok == (t <= tstar + TOL)


# ---------------------------------------------------------------------------
# the bound


def test_bound_cycle4(c4, c4_spec):
    rep = dl.design_bound(c4, c4_spec, 4, spheres=[0])
    assert rep.bound == pytest.approx(2.0, abs=TOL)
    assert not rep.vacuous


def test_bound_hamming3(h32, h32_spec):
    rep = dl.design_bound(h32, h32_spec, 6, spheres=[0])
    assert rep.bound == pytest.approx(4.0, abs=TOL)
    # tight against the even-weight code
    assert len(even_weight_code(h32)) == 4


def test_bound_johnson_fano(j73, j73_spec):
    rep = dl.design_bound(j73, j73_spec, 15, spheres=[0])
    assert rep.lam == pytest.approx(12, abs=TOL)
    assert rep.bound == pytest.approx(7.0, abs=TOL)
    ranks = [next(v for v, s in enumerate(j73.labels) if s == b)
             for b in FANO_BLOCKS]
    fano = dl.make_design(ranks)
    assert dl.design_strength(j73, j73_spec, fano).strength == pytest.approx(15)


def test_bound_vacuous(c4, c4_spec):
    rep = dl.design_bound(c4, c4_spec, 1, spheres=[0])
    assert rep.vacuous
    assert rep.bound == 0.0


def test_bound_auto(h82, h82_spec):
    reports, best = dl.design_bound_auto(h82, h82_spec, 8)
    assert len(reports) == 9
    assert reports[0].vacuous                     # lam = 8 at radius 0
    assert best.omega == "ball 1"
    assert best.bound == pytest.approx((2 * math.sqrt(2) / 8) * 256 / 9, abs=TOL)


# ---------------------------------------------------------------------------
# isometries


def test_hamming_translation(h32):
    # y = 011 (vertex 3): tau(x) = x XOR 011
    d = dl.make_design([3])
    act = dl.translations_to_origin(h32, d)
    assert act.validated
    assert (act.permutations[0] == np.arange(8) ^ 3).all()


def test_cycle_rotation():
    c6 = dl.cycle(6)
    act = dl.translations_to_origin(c6, dl.make_design([4]))
    assert act.permutations[0][4] == 0
    assert (act.permutations[0] == (np.arange(6) - 4) % 6).all()


def test_johnson_symmetric_difference_matching():
    j42 = dl.johnson(4, 2)
    origin = next(v for v, s in enumerate(j42.labels) if s == (1, 2))
    y = next(v for v, s in enumerate(j42.labels) if s == (3, 4))
    act = dl.translations_to_origin(j42, dl.make_design([y]), origin=origin)
    assert act.permutations[0][y] == origin
    # ground permutation (1 3)(2 4): {1,3} -> {2,3} image check... {1,3}->{3,1}?
    v13 = next(v for v, s in enumerate(j42.labels) if s == (1, 3))
    img = j42.labels[act.permutations[0][v13]]
    assert img == (1, 3)      # both elements swapped, set preserved


def test_unsupported_action(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("graph 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n")
    g = dl.load_space(str(path))
    with pytest.raises(ValueError, match="isometry"):
        dl.translations_to_origin(g, dl.make_design([1]))


def test_isometry_file_roundtrip(tmp_path, c4):
    d = dl.make_design([0, 2])
    act = dl.translations_to_origin(c4, d)
    path = tmp_path / "iso.txt"
    with open(path, "w") as fh:
        for perm in act.permutations:
            fh.write("perm 4\n")
            fh.writelines(f"{v}\n" for v in perm)
    loaded = dl.load_isometries(str(path), c4, d)
    assert (loaded.permutations == act.permutations).all()


def test_bad_isometry_rejected(tmp_path, c4):
    d = dl.make_design([1])
    path = tmp_path / "iso.txt"
    # swaps 0 and 2 but fixes 1: does not map the design point to the origin
    path.write_text("perm 4\n2\n1\n0\n3\n")
    with pytest.raises(ValueError, match="origin"):
        dl.load_isometries(str(path), c4, d)


@pytest.mark.parametrize("text, where, what", [
    ("perm\n0\n1\n2\n3\n", ":1:", "expected 'perm 4' header"),
    ("perm four\n0\n1\n2\n3\n", ":1:", "'four' is not an integer"),
    ("# c\nperm 4\n2\n3\nx\n1\n", ":5:", "'x' is not an integer"),
    ("perm 4\n2\n3\n", ":1:", "truncated"),
])
def test_malformed_isometry_file_names_the_line(tmp_path, c4, text, where, what):
    path = tmp_path / "iso.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        dl.load_isometries(str(path), c4, dl.make_design([2]))
    assert str(exc.value).startswith(f"{path}{where}")
    assert what in str(exc.value)


def test_isometries_checked_exhaustively_above_1024_vertices(tmp_path):
    h11 = dl.hamming(11, 2)                 # N = 2048
    d = dl.make_design([0, 5, 1234])
    act = dl.translations_to_origin(h11, d)
    assert act.validated
    # a translation composed with a transposition of two vertices outside
    # the design moves only two of the 2048 rows of the class matrix
    perms = act.permutations.copy()
    perms[1, [77, 1500]] = perms[1, [1500, 77]]
    path = tmp_path / "iso.txt"
    with open(path, "w") as fh:
        for perm in perms:
            fh.write(f"perm {h11.n_vertices}\n")
            fh.writelines(f"{v}\n" for v in perm)
    with pytest.raises(ValueError, match="isometry 1 does not preserve relations"):
        dl.load_isometries(str(path), h11, d)


# ---------------------------------------------------------------------------
# F and the covering chain


def test_build_F_identity(h32):
    eig = dl.subset_eigen(h32, h32.ball(0, 1))
    act = dl.IsometryAction(permutations=np.arange(8)[None, :], validated=True)
    F = dl.build_F(h32, eig, act)
    assert np.allclose(F, eig.eigenfunction)


def test_build_F_shifted_deltas(h32, h32_spec):
    code = even_weight_code(h32)
    d = dl.make_design(code)
    eig = dl.spherical_subset_eigen(h32, 0, [0])
    act = dl.translations_to_origin(h32, d)
    F = dl.build_F(h32, eig, act, d.weights)
    want = np.zeros(8)
    want[code] = 1.0
    assert np.allclose(F, want, atol=TOL)


def test_cover_chain_tight_hamming(h32, h32_spec):
    d = dl.make_design(even_weight_code(h32))
    eig = dl.spherical_subset_eigen(h32, 0, [0])
    rep = dl.verify_cover_chain(h32, h32_spec, d, 6, eig)
    assert rep.chain == pytest.approx((4, 4, 4, 4), abs=TOL)
    assert rep.dirichlet_lhs == pytest.approx(12, abs=TOL)
    assert rep.dirichlet_rhs == pytest.approx(12, abs=TOL)
    assert rep.max_design_residual <= 1e-8


def test_cover_chain_tight_cycle(c4, c4_spec):
    d = dl.make_design([0, 2])
    eig = dl.spherical_subset_eigen(c4, 0, [0])
    rep = dl.verify_cover_chain(c4, c4_spec, d, 4, eig)
    assert rep.chain == pytest.approx((2, 2, 2, 2), abs=TOL)


def test_cover_chain_extended_hamming(h82, h82_spec):
    code = extended_hamming_code()
    # sanity: distance-4 code, so radius-1 balls are disjoint
    dists = {int(h82.classes[a, b]) for a in code for b in code if a != b}
    assert min(dists) == 4
    d = dl.make_design(code)
    eig = dl.spherical_subset_eigen(h82, 0, [0, 1])
    rep = dl.verify_cover_chain(h82, h82_spec, d, 8, eig)
    assert rep.chain[:3] == pytest.approx((144, 144, 144), abs=TOL)
    assert rep.chain[3] == pytest.approx(64 * math.sqrt(2), abs=1e-6)
    ff = float(rep.F @ rep.F)
    assert rep.dirichlet_lhs <= rep.dirichlet_rhs + TOL * ff
    assert rep.max_design_residual <= 1e-8
    # Rayleigh and Cauchy-Schwarz supporting inequalities
    assert rep.rayleigh_lhs >= rep.rayleigh_rhs - 1e-8 * ff
    assert rep.cauchy_lhs >= rep.cauchy_rhs - TOL * ff


def test_cover_chain_rejects_vacuous(c4, c4_spec):
    d = dl.make_design([0, 2])
    eig = dl.spherical_subset_eigen(c4, 0, [0])         # lam = 2 >= t
    with pytest.raises(ValueError, match="vacuous"):
        dl.verify_cover_chain(c4, c4_spec, d, 1.5, eig)


def test_cover_chain_rejects_nonverifying(c4, c4_spec):
    d = dl.make_design([0, 1])                # not a strength-4 design
    eig = dl.spherical_subset_eigen(c4, 0, [0])
    with pytest.raises(ValueError, match="verify"):
        dl.verify_cover_chain(c4, c4_spec, d, 4, eig)


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_cycle4(c4, c4_spec):
    d, size = dl.min_design_search(c4, c4_spec, 4, 4)
    assert size == 2
    assert list(d.points) == [0, 2]


def test_search_cycle6():
    c6 = dl.cycle(6)
    spec = dl.spectral_decomposition(c6)
    d, size = dl.min_design_search(c6, spec, 3, 4)
    assert size == 2
    assert list(d.points) == [0, 3]


def test_search_vacuous_condition(c4, c4_spec):
    d, size = dl.min_design_search(c4, c4_spec, 1.5, 4)
    assert size == 1


def test_search_none_found():
    c5 = dl.cycle(5)
    spec = dl.spectral_decomposition(c5)
    d, size = dl.min_design_search(c5, spec, spec.eigenvalues[-1] + 1, 2)
    assert d is None


def test_search_caps(c4, c4_spec):
    with pytest.raises(ValueError, match="cap"):
        dl.min_design_search(dl.hamming(6, 2), dl.spectral_decomposition(
            dl.hamming(6, 2)), 2, 2)


def test_search_confirms_bound(c4, c4_spec):
    d, size = dl.min_design_search(c4, c4_spec, 4, 4)
    rep = dl.design_bound(c4, c4_spec, 4, spheres=[0])
    assert size >= rep.bound - TOL


# ---------------------------------------------------------------------------
# weighted designs


def test_weighted_design_counts(h32, h32_spec):
    # doubling every weight doubles |D| but preserves strength
    code = even_weight_code(h32)
    d1 = dl.make_design(code)
    d2 = dl.make_design(code, weights=[2] * len(code))
    assert d2.size == 8
    s1 = dl.design_strength(h32, h32_spec, d1).strength
    s2 = dl.design_strength(h32, h32_spec, d2).strength
    assert s1 == s2


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_t_must_be_finite_and_positive(h32, h32_spec, t):
    design = dl.make_design([0, 7], n_vertices=8)
    calls = [
        lambda: dl.verify_design(h32, h32_spec, design, t),
        lambda: dl.design_bound(h32, h32_spec, t, spheres=[0, 1]),
        lambda: dl.design_bound_auto(h32, h32_spec, t),
        lambda: dl.min_design_search(h32, h32_spec, t, 4),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="t must be positive"):
            call()
