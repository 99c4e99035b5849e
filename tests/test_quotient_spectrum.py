"""The quotient route of spectral_decomposition against a dense oracle.

Schemes are decomposed from the (m+1) x (m+1) quotient Laplacian; the
oracle here groups the eigenvalues of the full N x N Laplacian instead.
"""

import dataclasses
import re
from collections import deque

import numpy as np
import pytest

import designlab as dl
from designlab import spectra
from designlab.cli import main as cli_main
from designlab.spaces import component_labels

TOL = 1e-9


def dense_oracle(space, tol=TOL):
    """Eigenvalues, multiplicities, projectors and zonal table from eigh(L)."""
    n, m = space.n_vertices, space.n_classes
    w, vecs = np.linalg.eigh(space.laplacian())
    cuts = np.flatnonzero(np.diff(w) > tol * max(1.0, space.degree)) + 1
    groups = np.split(np.arange(n), cuts)
    eigenvalues = np.array([w[g].mean() for g in groups])
    multiplicities = np.array([len(g) for g in groups])
    projectors = np.stack([vecs[:, g] @ vecs[:, g].T for g in groups])
    ring = space.classes[0]
    sizes = np.bincount(ring, minlength=m + 1)
    zonal = np.zeros((len(groups), m + 1))
    for j, proj in enumerate(projectors):
        col = n / multiplicities[j] * proj[:, 0]
        sums = np.bincount(ring, weights=col, minlength=m + 1)
        zonal[j] = np.divide(sums, sizes, out=np.zeros(m + 1), where=sizes > 0)
    return eigenvalues, multiplicities, projectors, zonal


def assert_matches_oracle(space):
    spec = dl.spectral_decomposition(space)
    eigenvalues, multiplicities, projectors, zonal = dense_oracle(space)
    assert np.abs(spec.eigenvalues - eigenvalues).max() <= 1e-8
    assert (spec.multiplicities == multiplicities).all()
    assert np.abs(spec.zonal - zonal).max() <= 1e-8
    assert np.abs(spec.projectors - projectors).max() <= 1e-8
    return spec


@pytest.mark.parametrize("space_fn", [
    lambda: dl.hamming(1, 5),
    lambda: dl.hamming(3, 2),
    lambda: dl.hamming(6, 2),
    lambda: dl.hamming(3, 3, laplacian_class=2),
    lambda: dl.johnson(7, 3),
    lambda: dl.johnson(8, 3, laplacian_class=3),
    lambda: dl.cycle(9),
    lambda: dl.cycle(12, laplacian_class=5),
])
def test_builtins_match_dense_oracle(space_fn):
    assert_matches_oracle(space_fn())


@pytest.mark.parametrize("space_fn, merged", [
    (lambda: dl.hamming(4, 3, laplacian_class=2), 3),
    (lambda: dl.hamming(5, 2, laplacian_class=3), 4),
    (lambda: dl.johnson(8, 4, laplacian_class=2), 4),
    (lambda: dl.johnson(8, 4, laplacian_class=3), 4),
])
def test_merged_eigenspaces_match_dense_oracle(space_fn, merged):
    # relations that are not P-polynomial: Bose-Mesner eigenspaces with equal
    # Laplacian eigenvalue merge into one group of fewer than m+1
    space = space_fn()
    spec = assert_matches_oracle(space)
    assert spec.n_eigenspaces == merged < space.n_classes + 1
    assert np.abs(spec.projectors.sum(axis=0) - np.eye(space.n_vertices)).max() <= TOL


def test_loaded_scheme_matches_dense_oracle(tmp_path):
    path = tmp_path / "j62.txt"
    dl.save_space(dl.johnson(6, 2), str(path))
    loaded = dl.load_space(str(path), laplacian_class=2)
    assert loaded.kind == "scheme"
    assert_matches_oracle(loaded)


def test_graph_matches_dense_oracle(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("graph 5\n" + "".join(f"edge {v} {(v + 1) % 5}\n" for v in range(5)))
    graph = dl.load_space(str(path))
    spec = assert_matches_oracle(graph)
    assert np.isnan(spec.eigenmatrix[2]).all()


def test_projectors_built_on_first_read():
    spec = dl.spectral_decomposition(dl.hamming(4, 2))
    assert "projectors" not in vars(spec)
    first = spec.projectors
    assert first.shape == (5, 16, 16)
    assert spec.projectors is first


def _record_eigh(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def test_scheme_spectrum_solves_only_the_quotient(monkeypatch):
    shapes = _record_eigh(monkeypatch)
    for space in (dl.hamming(8, 2), dl.johnson(9, 4), dl.cycle(40),
                  dl.johnson(8, 4, laplacian_class=3)):
        shapes.clear()
        dl.spectral_decomposition(space)
        m = space.n_classes
        assert shapes and all(s[0] <= m + 1 for s in shapes), shapes


def test_bound_auto_solves_only_quotients(monkeypatch, capsys):
    shapes = _record_eigh(monkeypatch)
    assert cli_main(["bound", "hamming:n=8,q=2", "--t", "8", "--auto"]) == 0
    capsys.readouterr()
    assert shapes and max(s[0] for s in shapes) <= 9


def test_bound_auto_second_t_solves_nothing(monkeypatch):
    # ball eigenvalues do not depend on t: the first sweep builds them, the
    # next sweep on the same SpectralData only does arithmetic
    shapes = _record_eigh(monkeypatch)
    sweeps = []         # tridiagonal ball quotients are solved without eigh
    minima = spectra._leading_block_minima
    monkeypatch.setattr(spectra, "_leading_block_minima",
                        lambda *args: sweeps.append(args) or minima(*args))
    for space in (dl.hamming(8, 2), dl.cycle(40)):
        spec = dl.spectral_decomposition(space)
        shapes.clear()
        sweeps.clear()
        dl.design_bound_auto(space, spec, 2.5)
        assert len(shapes) + len(sweeps) >= 1
        shapes.clear()
        sweeps.clear()
        dl.design_bound_auto(space, spec, 0.7)
        assert shapes == [] and sweeps == []


def test_non_integral_multiplicity_rejected():
    # a loop count p^1_{1,1} = 1 keeps the symmetry n_a p^a_{rb} = n_b p^b_{ra}
    # but no scheme has these intersection numbers
    space = dl.hamming(3, 2)
    p = space.intersection_numbers.copy()
    p[1, 1, 1] = 1
    with pytest.raises(RuntimeError, match="multiplicities"):
        dl.spectral_decomposition(dataclasses.replace(space, intersection_numbers=p))


def _distance_and_bound(message):
    found = re.search(r"largest distance to an integer (\S+), bound tol\*N = (\S+)\)",
                      message)
    assert found, message
    return float(found[1]), float(found[2])


def test_multiplicity_error_names_distance_and_bound(capsys):
    # H(3,2)'s multiplicities are integers to within rounding, which
    # --tol 1e-17 (tol*N = 8e-17) is below
    assert cli_main(["spectrum", "hamming:n=3,q=2", "--tol", "1e-17"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: eigenspace multiplicities 1 3 3 1 are not positive")
    off, bound = _distance_and_bound(out)
    assert bound == 8e-17 and bound < off < 1e-14
    # the loop count p^1_{1,1} = 1 puts them a tenth off
    space = dl.hamming(3, 2)
    p = space.intersection_numbers.copy()
    p[1, 1, 1] = 1
    with pytest.raises(RuntimeError, match="^eigenspace multiplicities") as exc:
        dl.spectral_decomposition(dataclasses.replace(space, intersection_numbers=p))
    off, bound = _distance_and_bound(str(exc.value))
    assert bound == 8e-9 and 0.05 < off < 0.5


def test_quotient_symmetry_failure_names_classes():
    space = dl.hamming(3, 2)
    p = space.intersection_numbers.copy()
    p[1, 1, 2] = 1
    with pytest.raises(RuntimeError, match="classes 1,2"):
        dl.quotient_matrix(dataclasses.replace(space, intersection_numbers=p),
                           range(4))


def test_scheme_without_intersection_numbers_rejected():
    space = dataclasses.replace(dl.cycle(6), kind="scheme", intersection_numbers=None)
    with pytest.raises(ValueError, match="intersection numbers"):
        dl.spectral_decomposition(space)


def _bfs_labels(adjacency):
    n = len(adjacency)
    labels = [-1] * n
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in np.flatnonzero(adjacency[x]):
                if labels[y] < 0:
                    labels[y] = start
                    queue.append(y)
    return labels


def test_component_labels_match_bfs():
    rng = np.random.default_rng(23)
    for n, p in [(1, 0.0), (7, 0.0), (30, 0.05), (60, 0.03), (40, 0.5)]:
        upper = np.triu(rng.random((n, n)) < p, 1)
        adjacency = upper | upper.T
        assert component_labels(adjacency).tolist() == _bfs_labels(adjacency)
    # a long path with shuffled vertex ids
    perm = rng.permutation(300)
    path = np.zeros((300, 300), dtype=bool)
    path[perm[:-1], perm[1:]] = path[perm[1:], perm[:-1]] = True
    assert (component_labels(path) == 0).all()
