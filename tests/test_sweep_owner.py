"""The ball sweep belongs to the space: ``spectra.ball_eigenvalues`` keeps
one sweep per (origin, tol) on the space, shared by every spectral
decomposition of it, and its Newton solve stops at a per-block scale.
"""

import ast
import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np

import designlab as dl
from designlab import spaces, spectra
from test_quotient_spectrum import _record_eigh


def _record_minima(monkeypatch):
    calls = []
    minima = spectra._leading_block_minima
    monkeypatch.setattr(spectra, "_leading_block_minima",
                        lambda *args: calls.append(len(args[0])) or minima(*args))
    return calls


def test_a_second_call_returns_the_same_sweep():
    space = dl.johnson(9, 4)
    first = spectra.ball_eigenvalues(space, 57, 1e-9)
    assert spectra.ball_eigenvalues(space, 57, 1e-9) is first
    assert spectra.ball_eigenvalues(space, 0, 1e-9) is not first
    assert spectra.ball_eigenvalues(space, 57, 1e-6) is not first


def test_two_decompositions_of_one_space_share_the_sweep(monkeypatch):
    shapes = _record_eigh(monkeypatch)
    calls = _record_minima(monkeypatch)
    for space in (dl.hamming(8, 2), dl.cycle(40), dl.johnson(8, 4, laplacian_class=2)):
        spec_a = dl.spectral_decomposition(space)
        spec_b = dl.spectral_decomposition(space, tol=1e-6)
        shapes.clear()
        calls.clear()
        reports_a, _ = dl.design_bound_auto(space, spec_a, 2.5)
        assert len(shapes) + len(calls) >= 1
        shapes.clear()
        calls.clear()
        reports_b, _ = dl.design_bound_auto(space, spec_b, 0.7)
        assert shapes == [] and calls == []
        assert [r.lam for r in reports_a] == [r.lam for r in reports_b]


def test_a_replaced_space_recomputes_its_sweep(monkeypatch):
    calls = _record_minima(monkeypatch)
    space = dl.hamming(6, 2)
    first = spectra.ball_eigenvalues(space, 0)
    copy = dataclasses.replace(space)
    assert calls == [7]
    again = spectra.ball_eigenvalues(copy, 0)
    assert calls == [7, 7]
    assert again == first and again is not first
    assert spectra.ball_eigenvalues(space, 0) is first
    assert "_ball_sweeps" not in repr(space)


def test_the_bounds_read_only_the_origin_of_the_decomposition():
    space = dl.johnson(9, 4)
    spectral = dl.spectral_decomposition(space, 57)
    bare = SimpleNamespace(origin=57)
    for t in (0.5, 2.5, 9.0):
        full_reports, full_best = dl.design_bound_auto(space, spectral, t)
        bare_reports, bare_best = dl.design_bound_auto(space, bare, t)
        assert full_reports == bare_reports and full_best == bare_best
        full = dl.design_bound(space, spectral, t, spheres=[0, 1])
        got = dl.design_bound(space, bare, t, spheres=[0, 1])
        assert dataclasses.replace(got, subset_eig=None) == dataclasses.replace(
            full, subset_eig=None)
        assert np.array_equal(got.subset_eig.eigenfunction,
                              full.subset_eig.eigenfunction)


def test_spaces_does_not_import_spectra():
    tree = ast.parse(inspect.getsource(spaces))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(name and "spectra" in name for name in imported), imported
    assert not any(f.name == "ball_eigen"
                   for f in dataclasses.fields(dl.SpectralData))


def test_long_ball_quotients_stop_without_eigvalsh(monkeypatch):
    # the H(1000,2) ball quotient in closed form: diagonal n, couplings
    # -sqrt((n-k)(k+1)); under a stop rule at an absolute 2^-52 block 542
    # crept up by 4e-16 a step until the step cap handed it to eigvalsh
    n = 1000
    k = np.arange(n)
    diag, off = np.full(n + 1, float(n)), -np.sqrt((n - k) * (k + 1.0))
    fallbacks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda block: fallbacks.append(len(block)) or eigvalsh(block))
    got = spectra._leading_block_minima(diag, off)
    assert fallbacks == []
    block = np.diag(diag[:543]) + np.diag(off[:542], 1) + np.diag(off[:542], -1)
    assert abs(got[542] - eigvalsh(block)[0]) <= 1e-12 * 2 * n
