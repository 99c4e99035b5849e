"""SpectralData.components against the projectors, and the routes that use it.

``components(w)`` returns the (k, N) array of E_j w.  For a scheme it comes
from the zonal table and the class sums (A_i w)_x, for an explicit graph
from the eigenvector blocks; neither builds the (k, N, N) projectors.
"""

import numpy as np
import pytest

import designlab as dl
from conftest import even_weight_code, extended_hamming_code
from designlab.spectra import sphere_union_eigen
from test_ball_sweep import cube8, petersen


def cycle5(path):
    path.write_text("graph 5\n" + "".join(f"edge {v} {(v + 1) % 5}\n" for v in range(5)))
    return dl.load_space(str(path))


def johnson62_file(path):
    dl.save_space(dl.johnson(6, 2), str(path))
    return dl.load_space(str(path), laplacian_class=2)


def sample_vectors(n, rng):
    """Dense, sparse, weighted and single-vertex functions on n vertices."""
    sparse = np.zeros(n)
    few = max(1, n // 5)
    sparse[rng.choice(n, size=few, replace=False)] = rng.normal(size=few)
    weighted = np.zeros(n)
    weighted[rng.choice(n, size=min(n, 3), replace=False)] = rng.integers(1, 5, min(n, 3))
    single = np.zeros(n)
    single[rng.integers(n)] = 1.0
    return {"dense": rng.normal(size=n), "sparse": sparse, "weighted": weighted,
            "single": single}


@pytest.mark.parametrize("make", [
    lambda _: dl.hamming(1, 5),
    lambda _: dl.hamming(3, 2),
    lambda _: dl.hamming(6, 2),
    lambda _: dl.hamming(3, 3, laplacian_class=2),
    lambda _: dl.johnson(7, 3),
    lambda _: dl.johnson(8, 3, laplacian_class=3),
    lambda _: dl.cycle(9),
    lambda _: dl.cycle(12, laplacian_class=5),
    lambda _: dl.hamming(4, 3, laplacian_class=2),
    lambda _: dl.hamming(5, 2, laplacian_class=3),
    lambda _: dl.johnson(8, 4, laplacian_class=2),
    lambda _: dl.johnson(8, 4, laplacian_class=3),
    johnson62_file,
    cycle5,
    petersen,
    cube8,
])
def test_components_match_projectors(make, tmp_path):
    space = make(tmp_path / "space.txt")
    spec = dl.spectral_decomposition(space)
    rng = np.random.default_rng(space.n_vertices)
    for name, w in sample_vectors(space.n_vertices, rng).items():
        got = spec.components(w)
        assert got.shape == (spec.n_eigenspaces, space.n_vertices)
        want = np.einsum("jxy,y->jx", spec.projectors, w)
        assert np.abs(got - want).max() <= 1e-12, (space.kind, name)


@pytest.mark.parametrize("make", [lambda _: dl.hamming(8, 2), cube8])
def test_strength_verify_and_cover_do_not_build_projectors(make, tmp_path):
    space = make(tmp_path / "space.txt")
    spec = dl.spectral_decomposition(space)
    code = dl.make_design(extended_hamming_code())
    assert dl.design_strength(space, spec, code).strength == pytest.approx(8)
    assert dl.verify_design(space, spec, code, 8)[0]
    eig = sphere_union_eigen(space, 0, [0, 1])
    action = dl.translations_to_origin(dl.hamming(8, 2), code)
    rep = dl.verify_cover_chain(space, spec, code, 8, eig, action)
    assert rep.max_design_residual <= 1e-9
    assert "projectors" not in vars(spec)


def test_even_weight_code_in_h11_has_strength_22():
    space = dl.hamming(11, 2)
    spec = dl.spectral_decomposition(space)
    rep = dl.design_strength(space, spec, dl.make_design(even_weight_code(space)))
    assert rep.strength == 22.0
    assert max(res for _, res in rep.per_eigenspace[:-1]) <= 1e-9
    assert rep.per_eigenspace[-1][1] == pytest.approx(np.sqrt(0.5))
    assert "projectors" not in vars(spec)


def test_components_in_column_blocks_are_bit_identical(monkeypatch):
    space = dl.hamming(8, 2)
    spec = dl.spectral_decomposition(space)
    w = np.random.default_rng(8).normal(size=space.n_vertices)
    whole = spec.components(w)
    monkeypatch.setattr(dl.spaces, "_CHUNK", 64)
    assert np.array_equal(spec.components(w), whole)
