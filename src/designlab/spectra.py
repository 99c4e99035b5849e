"""Laplacian, Dirichlet form and Dirichlet eigenvalues of vertex subsets.

The Laplacian sums each vertex's neighbours in a fixed order, with no BLAS
call.  A subset's Dirichlet eigenvalue, the least Rayleigh quotient of
functions on it, comes from dense restriction or, for sphere unions in a
scheme, the quotient matrix; ``_leading_block_minima`` solves a tridiagonal
quotient (every metric scheme's balls) for all its leading blocks at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spaces import (DEFAULT_TOL, Records, Space, _check_origin, _neighbours, _sphere_set,
                     component_labels, quotient_matrix)


@dataclass(frozen=True)
class SubsetEig:
    """A subset with its Dirichlet eigenvalue and first eigenfunction.

    The eigenfunction is nonnegative, unit-norm, and zero outside the
    subset.  ``method`` records which route produced it.
    """

    omega: np.ndarray              # sorted vertex ids
    value: float
    eigenfunction: np.ndarray      # (N,)
    method: str                    # "dense" | "quotient"
    origin: int | None = None
    spheres: tuple[int, ...] | None = None


def laplacian_apply(space: Space, f: np.ndarray) -> np.ndarray:
    """Apply the relation-r Laplacian to f: degree * f[x] minus the sum of f
    over x's ``_neighbours`` in ascending order, with no BLAS call."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n_vertices,):
        raise ValueError("function has wrong length")
    nbrs = _neighbours(space.classes, space.laplacian_class)
    if nbrs is None:
        raise ValueError(f"relation class {space.laplacian_class} is not regular")
    return space.degree * f - f[nbrs].sum(axis=1)


def dirichlet_form(space: Space, f: np.ndarray, g: np.ndarray | None = None) -> float:
    """Dirichlet energy <f, Lap g> (g defaults to f)."""
    f = np.asarray(f, dtype=float)
    if g is None:
        g = f
    return float(f @ laplacian_apply(space, g))


def dirichlet_form_edges(space: Space, f: np.ndarray) -> float:
    """Edge-sum form of the Dirichlet energy, for cross-checking."""
    f = np.asarray(f, dtype=float)
    adj = space.classes == space.laplacian_class
    diff = f[:, None] - f[None, :]
    # adj holds ordered pairs, so each edge is counted twice
    return float(0.5 * (diff[adj] ** 2).sum())


def _sign_normalize(vec: np.ndarray, tol: float) -> np.ndarray:
    peak = np.argmax(np.abs(vec))
    if vec[peak] < 0:
        vec = -vec
    vec = vec.copy()
    vec[(vec < 0) & (vec >= -tol)] = 0.0
    return vec


def _clamped(values, tol: float, degree: float):
    """Dirichlet eigenvalues as Python floats, each within tol * degree of 0
    as 0.0, whatever the sign of the solver's noise."""
    return np.where(np.abs(values) < tol * degree, 0.0, values).tolist()


def _min_block_eigen(matrix: np.ndarray, adjacency: np.ndarray, tol: float,
                     degree: float):
    """Smallest eigenvalue over connected blocks of a restricted matrix.

    Blocks are iterated in order of lowest member, so a tie keeps the block
    with the lowest minimum index.  Returns (value, vector) with the vector
    in the coordinates of ``matrix``, and the value ``_clamped``.
    """
    n = matrix.shape[0]
    comp = component_labels(adjacency)
    best_val, best_vec = None, None
    for c in np.unique(comp):            # ascending lowest member
        idx = np.flatnonzero(comp == c)
        sub = matrix[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(sub)
        if best_val is None or w[0] < best_val - tol:
            best_val = float(w[0])
            best_vec = np.zeros(n)
            best_vec[idx] = v[:, 0]
    return _clamped(best_val, tol, degree), best_vec


def _quotient_eigen(space: Space, sym: np.ndarray, tol: float):
    """``_min_block_eigen`` of a symmetrised quotient, blocks split where
    entries are below ``tol`` relative to the degree."""
    adj = np.abs(sym) > tol * max(1.0, space.degree)
    np.fill_diagonal(adj, True)
    return _min_block_eigen(sym, adj, tol, space.degree)


def _tridiagonal_size(space: Space, sym: np.ndarray, tol: float) -> int:
    """Size of the largest leading block of a symmetrised quotient that is
    tridiagonal with every coupling above ``_quotient_eigen``'s split
    threshold, so one irreducible block.  On a metric scheme at the default
    tol that is the whole ball quotient.  It reads the lower triangle, as
    ``eigh`` does; ``quotient_matrix`` makes both triangles equal."""
    coupled = np.abs(np.diagonal(sym, -1)) > tol * max(1.0, space.degree)
    coupled &= ~np.tril(sym, -2).any(axis=1)[1:]
    return 1 + int(np.logical_and.accumulate(coupled).sum())


_NEWTON_STEPS = 100     # then eigvalsh, for a block that is still rising


def _leading_block_minima(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each leading block T_r = T[:r+1, :r+1] of a
    positive semidefinite tridiagonal T with diagonal ``diag`` and nonzero
    couplings ``off``, all blocks in one vectorised pass.

    Newton's method on det(T_r - x), from the larger of 0 and T_r's
    Gershgorin bound, both at or below lambda_min(T_r): below the smallest
    root of a real-rooted polynomial the Newton step does not overshoot, so
    x rises monotonically to it.  With the pivots
    d_k = a_k - x - e_{k-1}^2 / d_{k-1} the step is -1 / sum_{k<=r} d_k'/d_k,
    and g_k = d_k'/d_k = (g_{k-1} e_{k-1}^2 / d_{k-1} - 1) / d_k.  A block
    stops when its step no longer exceeds 2^-52 max(||T_r||, x), with
    ||T_r|| its Gershgorin upper bound: the rounding noise of the pivots
    scales with ||T_r||, so a block whose step only creeps at that level
    has converged.  The bound is the block's own, not T's, so each block's
    arithmetic is its own and its value does not depend on the other
    blocks.  Ball quotients take 6-9 steps, and H(1000,2)'s take 19.
    A block still rising after ``_NEWTON_STEPS`` steps takes ``eigvalsh``
    of T_r instead: path Laplacians with weights spread over 1..2^20 reach
    that in about 1 of 13 random draws of up to 80 rows.
    """
    n = len(diag)
    # Gershgorin: over i <= r, lambda_min(T_r) >= min a_i - |e_{i-1}| - |e_i|
    # and ||T_r|| <= max a_i + |e_{i-1}| + |e_i|, where row r of T_r has no e_r
    coupling = np.abs(off)
    last, norm = diag.copy(), diag.copy()
    last[1:] -= coupling
    norm[1:] += coupling
    x = last.clip(0.0)
    x[1:] = np.minimum(x[1:], np.minimum.accumulate(last[:-1] - coupling).clip(0.0))
    norm[1:] = np.maximum(norm[1:], np.maximum.accumulate(norm[:-1] + coupling))
    rising = np.ones(n, dtype=bool)
    e2 = (off ** 2).tolist()
    ratios = np.zeros((n, n))       # [k, r]: g_k of block r, and 0 for k > r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            shifted = diag[:, None] - x
            d = shifted[0]
            g = np.divide(-1.0, d, out=ratios[0])
            for k in range(1, n):   # d[i], g[i]: pivot k of block k + i
                q = e2[k - 1] / d[1:]
                d = shifted[k, k:] - q
                g = np.divide(q * g[1:] - 1.0, d, out=ratios[k, k:])
            # adds row by row, k in order; fmax makes a falling or NaN step 0
            step = np.where(rising, np.fmax(-1.0 / ratios.sum(axis=0), 0.0), 0.0)
            x += step
            rising = step > 2.0 ** -52 * np.maximum(norm, x)
            if not rising.any():
                return x
    for r in np.flatnonzero(rising):
        block = np.diag(diag[:r + 1]) + np.diag(off[:r], 1) + np.diag(off[:r], -1)
        x[r] = np.linalg.eigvalsh(block)[0]
    return x


def _tridiagonal_minima(space: Space, sym: np.ndarray, tol: float) -> list[float]:
    """``_clamped`` ``_leading_block_minima`` of a tridiagonal quotient."""
    return _clamped(_leading_block_minima(np.diagonal(sym), np.diagonal(sym, -1)),
                    tol, space.degree)


def subset_eigen(space: Space, omega, tol: float = DEFAULT_TOL) -> SubsetEig:
    """Dirichlet eigenvalue of a subset by dense restriction.

    The smallest eigenvalue of the principal Laplacian submatrix on omega;
    if the restriction is reducible, the minimising block's Perron vector
    is used and the others are set to zero.
    """
    omega = np.unique(np.asarray(omega, dtype=int))
    if omega.size == 0:
        raise ValueError("omega is empty")
    if omega.min() < 0 or omega.max() >= space.n_vertices:
        raise ValueError("omega contains out-of-range vertices")
    adj = space.classes[np.ix_(omega, omega)] == space.laplacian_class
    sub = space.degree * np.eye(len(omega)) - adj
    val, vec = _min_block_eigen(sub, adj, tol, space.degree)
    psi = np.zeros(space.n_vertices)
    psi[omega] = _sign_normalize(vec, tol)
    psi /= np.linalg.norm(psi)
    return SubsetEig(omega=omega, value=val, eigenfunction=psi, method="dense")


def spherical_subset_eigen(space: Space, origin: int, spheres,
                           tol: float = DEFAULT_TOL) -> SubsetEig:
    """Dirichlet eigenvalue of a union of spheres via the quotient matrix.

    Classes outside the sphere set are dropped (Dirichlet condition); the
    returned eigenfunction is the zero-extended sphere-constant vector.  A
    quotient that is one tridiagonal block takes its value from
    ``_leading_block_minima``, as ``ball_eigenvalues`` does, and its
    eigenvector from ``eigh``; any other takes ``_quotient_eigen``.
    """
    _check_origin(space, origin)
    spheres = _sphere_set(space, spheres)
    sym, root = quotient_matrix(space, spheres)
    if _tridiagonal_size(space, sym, tol) == len(sym):
        val = _tridiagonal_minima(space, sym, tol)[-1]
        u = np.linalg.eigh(sym)[1][:, 0]
    else:
        val, u = _quotient_eigen(space, sym, tol)
    vals = np.zeros(space.n_classes + 1)
    vals[list(spheres)] = u / root     # back to sphere-function coordinates
    ring = space.rows([origin])[0]
    psi = _sign_normalize(vals[ring], tol)
    psi /= np.linalg.norm(psi)
    omega = np.flatnonzero(np.isin(ring, spheres))
    return SubsetEig(omega=omega, value=val, eigenfunction=psi,
                     method="quotient", origin=origin, spheres=spheres)


def sphere_union_eigen(space: Space, origin: int, spheres,
                       tol: float = DEFAULT_TOL) -> SubsetEig:
    """Dirichlet eigenvalue of a union of spheres around ``origin``.

    A scheme (``space.is_scheme``) takes the quotient route, which needs
    its intersection numbers; an explicit graph takes dense restriction.
    Both check the origin and the sphere set by the same rules
    (``spaces._check_origin``, ``spaces._sphere_set``), and both return
    ``origin`` and the sorted distinct ``spheres``; ``method`` names the
    route, "quotient" or "dense".
    """
    if space.is_scheme:
        return spherical_subset_eigen(space, origin, spheres, tol)
    _check_origin(space, origin)
    spheres = _sphere_set(space, spheres)
    omega = np.flatnonzero(np.isin(space.rows([origin])[0], spheres))
    return replace(subset_eigen(space, omega, tol), origin=origin, spheres=spheres)


def ball_eigenvalues(space: Space, origin: int, tol: float = DEFAULT_TOL):
    """Dirichlet eigenvalues and volumes, as two tuples, of the balls 0..m
    around ``origin``.  For a scheme the quotient of ball r is the leading
    (r+1) x (r+1) block of the quotient on all m+1 spheres, so one quotient
    serves every radius: the balls whose block is tridiagonal take one
    ``_leading_block_minima`` solve, each larger ball ``_quotient_eigen``.
    Explicit graphs go through ``sphere_union_eigen``.  The sweep is built on
    the first call for each (origin, tol) and kept on the space, so a second
    call returns the same tuples; a build that raises keeps nothing.
    """
    if (origin, tol) in space._ball_sweeps:
        return space._ball_sweeps[origin, tol]
    _check_origin(space, origin)
    radii = range(space.n_classes + 1)
    if space.is_scheme:
        sym, _ = quotient_matrix(space, radii)
        size = _tridiagonal_size(space, sym, tol)
        lams = _tridiagonal_minima(space, sym[:size, :size], tol)
        lams += [_quotient_eigen(space, sym[:r + 1, :r + 1], tol)[0]
                 for r in radii[size:]]
    else:
        lams = [sphere_union_eigen(space, origin, range(r + 1), tol).value
                for r in radii]
    sweep = space._ball_sweeps[origin, tol] = (
        tuple(lams), tuple(np.cumsum(space.valencies).tolist()))
    return sweep


def load_subset(path: str, n_vertices: int | None = None) -> np.ndarray:
    """Read a subset file: one ``<vertex>`` record per line."""
    rec = Records(path)
    ids = rec.table(None, "vertex")[:, 0]
    if not ids.size:
        raise ValueError(f"{path}: empty subset file")
    bad = (ids < 0) | (ids >= (np.inf if n_vertices is None else n_vertices))
    if bad.any():
        raise rec.error(int(np.argmax(bad)), "subset vertex out of range")
    return np.unique(ids)
