import math

import numpy as np
import pytest

import designlab as dl
from conftest import krawtchouk

TOL = 1e-9


def test_hamming_counts(h32):
    assert h32.n_vertices == 8
    assert h32.n_classes == 3
    assert list(h32.valencies) == [1, 3, 3, 1]


def test_johnson_counts():
    j = dl.johnson(4, 2)
    assert j.n_vertices == 6
    assert j.n_classes == 2
    assert list(j.valencies) == [1, 4, 1]


def test_cycle_counts(c4):
    assert c4.n_vertices == 4
    assert c4.n_classes == 2
    assert list(c4.valencies) == [1, 2, 1]


def test_bad_parameters():
    with pytest.raises(dl.SchemeError):
        dl.hamming(2, 1)
    with pytest.raises(dl.SchemeError):
        dl.hamming(13, 2)          # 8192 vertices > cap
    with pytest.raises(dl.SchemeError):
        dl.johnson(4, 3)
    with pytest.raises(dl.SchemeError):
        dl.cycle(2)
    with pytest.raises(dl.SchemeError):
        dl.build_named_space("hamming:n=3")
    with pytest.raises(dl.SchemeError):
        dl.build_named_space("blah:n=3")


def test_spec_strings(c4):
    s = dl.build_named_space("cycle:n=4")
    assert (s.classes == c4.classes).all()
    s = dl.build_named_space("hamming:n=3,q=2")
    assert s.n_vertices == 8
    s = dl.build_named_space("johnson:n=4,w=2")
    assert s.n_vertices == 6


def test_load_graph_matches_cycle(tmp_path, c4):
    path = tmp_path / "c4.txt"
    path.write_text("graph 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n")
    g = dl.load_space(str(path))
    assert g.kind == "graph"
    assert (g.adjacency(1) == c4.adjacency(1)).all()


def test_load_path_graph_as_scheme_fails(tmp_path):
    # P_3 declared as a scheme: class-1 valency is 2 at the middle, 1 at ends
    path = tmp_path / "p3.txt"
    path.write_text("scheme 3 2\nrel 0 1 1\nrel 1 2 1\nrel 0 2 2\n")
    with pytest.raises(dl.SchemeError, match="not constant|not regular"):
        dl.load_space(str(path))


def test_load_scheme_hamming22(tmp_path):
    h = dl.hamming(2, 2)
    path = tmp_path / "h22.txt"
    dl.save_space(h, str(path))
    loaded = dl.load_space(str(path))
    assert loaded.intersection_numbers is not None
    # adjacent vertices in H(2,2) share no common neighbour
    assert loaded.intersection_numbers[1, 1, 1] == 0
    assert (loaded.classes == h.classes).all()


def test_load_missing_pair(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("scheme 3 1\nrel 0 1 1\nrel 1 2 1\n")
    with pytest.raises(dl.SchemeError, match="no classification"):
        dl.load_space(str(path))


def test_load_scheme_names_a_pair_that_breaks_p_k_ij(tmp_path):
    # C6 with classes {adjacent, non-adjacent}: the distance-2 pair (0,2) has
    # one common neighbour, the distance-3 pair (0,3) none
    c6 = dl.cycle(6)
    path = tmp_path / "c6.txt"
    path.write_text("scheme 6 2\n" + "".join(
        f"rel {u} {v} {1 if c6.classes[u, v] == 1 else 2}\n"
        for u in range(6) for v in range(u + 1, 6)))
    with pytest.raises(dl.SchemeError, match=r"p\^2_\{1,1\} not constant.* pair \(0,3\)"):
        dl.load_space(str(path))


def test_validate_hamming(h32):
    rep = dl.validate_scheme(h32)
    assert rep.valid
    # from a weight-1 word, 2 of its 3 neighbours lie at distance 2 from 0
    assert rep.intersection_numbers[1, 1, 2] == 2


def test_validate_cycle5():
    rep = dl.validate_scheme(dl.cycle(5))
    assert rep.valid


def test_validate_irregular_graph():
    # P_3 as a raw Space (bypassing regularity in the constructor)
    classes = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    space = dl.Space(kind="scheme", n_vertices=3, n_classes=2,
                     classes=classes, valencies=np.array([1, 1, 1]))
    rep = dl.validate_scheme(space)
    assert not rep.valid
    assert any("vertex 1" in f for f in rep.failures)


def test_validate_class_outside_range():
    classes = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    space = dl.Space(kind="scheme", n_vertices=3, n_classes=2,
                     classes=classes, valencies=np.array([1, 1, 1]))
    rep = dl.validate_scheme(space)
    assert rep.failures == ["pair (0,2) in class 5, outside 0..2"]


# ---------------------------------------------------------------------------
# spectral decomposition


def test_cycle4_spectrum(c4_spec):
    # oracle: eigenvalues of the 4x4 circulant are 2 - 2cos(2 pi k / 4)
    oracle = sorted({round(2 - 2 * math.cos(2 * math.pi * k / 4), 12)
                     for k in range(4)})
    assert np.allclose(c4_spec.eigenvalues, oracle, atol=TOL)
    assert list(c4_spec.multiplicities) == [1, 2, 1]


def test_hamming3_spectrum(h32_spec):
    assert np.allclose(h32_spec.eigenvalues, [0, 2, 4, 6], atol=TOL)
    assert list(h32_spec.multiplicities) == [math.comb(3, j) for j in range(4)]
    assert np.allclose(h32_spec.zonal[1], [1, 1 / 3, -1 / 3, -1], atol=TOL)


def test_complete_graph_spectrum():
    # the one-class scheme K_q arises as hamming(1, q)
    k5 = dl.hamming(1, 5)
    spec = dl.spectral_decomposition(k5)
    assert np.allclose(spec.eigenvalues, [0, 5], atol=TOL)
    assert list(spec.multiplicities) == [1, 4]


@pytest.mark.parametrize("space_fn", [
    lambda: dl.hamming(4, 2),
    lambda: dl.hamming(2, 3),
    lambda: dl.johnson(5, 2),
    lambda: dl.cycle(7),
])
def test_projector_identities(space_fn):
    space = space_fn()
    spec = dl.spectral_decomposition(space)
    total = spec.projectors.sum(axis=0)
    assert np.abs(total - np.eye(space.n_vertices)).max() <= TOL
    k = spec.n_eigenspaces
    for j in range(k):
        ej = spec.projectors[j]
        assert abs(np.trace(ej) - spec.multiplicities[j]) <= TOL * space.n_vertices
        for l in range(k):
            prod = ej @ spec.projectors[l]
            target = ej if j == l else 0
            assert np.abs(prod - target).max() <= TOL
    # reconstruction A_i = sum_j p_ij E_j
    for i in range(space.n_classes + 1):
        recon = sum(spec.eigenmatrix[i, j] * spec.projectors[j] for j in range(k))
        assert np.abs(recon - space.adjacency(i)).max() <= TOL
    # theta_j = degree - p_rj and zonal normalisation
    r = space.laplacian_class
    assert np.allclose(spec.eigenvalues, space.degree - spec.eigenmatrix[r],
                       atol=TOL)
    assert np.allclose(spec.zonal[:, 0], 1.0, atol=TOL)


def test_zonal_matches_projector_column(h32, h32_spec):
    # the vector x -> z_{j, class(o,x)} equals (N/m_j) E_j delta_o
    ring = h32.classes[0]
    for j in range(h32_spec.n_eigenspaces):
        col = 8 / h32_spec.multiplicities[j] * h32_spec.projectors[j][:, 0]
        assert np.abs(h32_spec.zonal[j][ring] - col).max() <= TOL


def test_krawtchouk_duality():
    for n in range(1, 7):
        space = dl.hamming(n, 2)
        spec = dl.spectral_decomposition(space)
        for j in range(n + 1):
            for i in range(n + 1):
                want = krawtchouk(n, j, i) / math.comb(n, j)
                assert abs(spec.zonal[j, i] - want) <= TOL


def test_intersection_number_symmetry():
    for space in (dl.hamming(4, 2), dl.johnson(6, 3), dl.cycle(9)):
        p = space.intersection_numbers
        r = space.laplacian_class
        n = space.valencies
        for i in range(space.n_classes + 1):
            for j in range(space.n_classes + 1):
                assert n[i] * p[i, r, j] == n[j] * p[j, r, i]


def _brute_force_intersection_numbers(classes, m):
    """counts[x, y, i, j] = #{z : c(x,z) = i, c(z,y) = j}."""
    onehot = (classes[:, :, None] == np.arange(m + 1)).astype(int)
    return np.einsum("xzi,zyj->xyij", onehot, onehot)


def _saved_and_loaded(tmp_path):
    path = tmp_path / "j63.txt"
    dl.save_space(dl.johnson(6, 3), str(path))
    return dl.load_space(str(path))


@pytest.mark.parametrize("make", [
    lambda tmp: dl.hamming(3, 2),
    lambda tmp: dl.hamming(4, 3),
    lambda tmp: dl.johnson(6, 3),
    lambda tmp: dl.johnson(7, 3),
    lambda tmp: dl.cycle(7),
    lambda tmp: dl.cycle(8),
    _saved_and_loaded,
])
def test_intersection_numbers_match_brute_force(tmp_path, make):
    space = make(tmp_path)
    p = space.intersection_numbers
    assert p.dtype == np.dtype(int)
    counts = _brute_force_intersection_numbers(space.classes, space.n_classes)
    assert (counts == p[space.classes]).all()      # every pair (x, y), k = c(x, y)
    assert (dl.validate_scheme(space).intersection_numbers == p).all()


def test_grouping_ambiguity_reported():
    # eigenvalues of C_6 are {0,1,1,3,3,4}; a tolerance whose 10x window
    # spans the unit gap must be refused, not resolved by guessing
    with pytest.raises(RuntimeError, match="ambiguous"):
        dl.spectral_decomposition(dl.cycle(6), tol=0.2)


# ---------------------------------------------------------------------------
# spherical projection


def test_projection_fixed_points(h32, h32_spec):
    n = h32.n_vertices
    delta = np.zeros(n)
    delta[0] = 1.0
    assert np.allclose(dl.spherical_projection(h32, h32_spec, delta), delta)
    ones = np.ones(n)
    assert np.allclose(dl.spherical_projection(h32, h32_spec, ones), ones)


def test_projection_single_off_origin(h32, h32_spec):
    x = int(h32.sphere(0, 1)[0])
    delta = np.zeros(8)
    delta[x] = 1.0
    proj = dl.spherical_projection(h32, h32_spec, delta)
    want = np.zeros(8)
    want[h32.sphere(0, 1)] = 1 / 3
    assert np.allclose(proj, want, atol=TOL)


def test_projection_operator_properties(j73, j73_spec):
    rng = np.random.default_rng(7)
    n = j73.n_vertices
    f = rng.normal(size=n)
    g = rng.normal(size=n)
    sf = dl.spherical_projection(j73, j73_spec, f)
    # idempotent and self-adjoint
    assert np.allclose(dl.spherical_projection(j73, j73_spec, sf), sf, atol=TOL)
    sg = dl.spherical_projection(j73, j73_spec, g)
    assert abs(f @ sg - g @ sf) <= TOL * n
    # commutes with every adjacency operator
    for i in range(j73.n_classes + 1):
        ai = j73.adjacency(i)
        lhs = dl.spherical_projection(j73, j73_spec, ai @ f)
        assert np.allclose(lhs, ai @ sf, atol=1e-8)


def test_zonal_eigen_projection(h32, h32_spec):
    # any eigenbasis vector projects to its value at o times the zonal vector
    rng = np.random.default_rng(11)
    ring = h32.classes[0]
    for j in range(h32_spec.n_eigenspaces):
        f = h32_spec.projectors[j] @ rng.normal(size=8)
        proj = dl.spherical_projection(h32, h32_spec, f)
        want = f[0] * h32_spec.zonal[j][ring]
        assert np.abs(proj - want).max() <= 1e-8


def test_disconnected_relation_rejected():
    with pytest.raises(dl.SchemeError, match="disconnected"):
        dl.cycle(6, laplacian_class=3)     # antipodal matching is disconnected


def test_roundtrip_spectral_data(tmp_path):
    for name, space in [("h", dl.hamming(3, 2)), ("j", dl.johnson(4, 2)),
                        ("c", dl.cycle(5))]:
        path = tmp_path / f"{name}.txt"
        dl.save_space(space, str(path))
        loaded = dl.load_space(str(path))
        a = dl.spectral_decomposition(space)
        b = dl.spectral_decomposition(loaded)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=TOL)
        assert (a.multiplicities == b.multiplicities).all()
        assert np.abs(a.projectors - b.projectors).max() <= 1e-8
        assert np.abs(a.zonal - b.zonal).max() <= 1e-8
