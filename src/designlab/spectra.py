"""Laplacian, Dirichlet form and Dirichlet eigenvalues of vertex subsets.

The Dirichlet eigenvalue of a subset is the minimum Rayleigh quotient over
functions supported on it.  Two routes are provided: dense restriction of
the Laplacian, and, for unions of spheres in a scheme, the quotient matrix
built from intersection numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spaces import (_CHUNK, DEFAULT_TOL, Records, Space, _check_origin, _sphere_set,
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
    """Apply the Laplacian of the chosen relation class to f.

    The adjacency is formed from the class matrix in row blocks of about
    ``_CHUNK`` entries, never as one N x N float matrix.  A block is a
    whole multiple of 64 rows, so that no block edge falls inside the small
    groups of rows that BLAS sums together: with one BLAS thread the result
    is the dense product's bit for bit.
    """
    f = np.asarray(f, dtype=float)
    n = space.n_vertices
    if f.shape != (n,):
        raise ValueError("function has wrong length")
    classes, r = space.classes, space.laplacian_class
    step = max(64, _CHUNK // n // 64 * 64)
    adj_f = np.concatenate([(classes[lo:lo + step] == r).astype(float) @ f
                            for lo in range(0, n, step)])
    return space.degree * f - adj_f


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


def _min_block_eigen(matrix: np.ndarray, adjacency: np.ndarray, tol: float,
                     degree: float):
    """Smallest eigenvalue over connected blocks of a restricted matrix.

    Blocks are iterated in order of lowest member, so a tie keeps the block
    with the lowest minimum index.  Returns (value, vector) with the vector
    in the coordinates of ``matrix``; a value within tol * degree of 0 is 0.0,
    whatever the sign of the eigensolver's noise.
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
    return (0.0 if abs(best_val) < tol * degree else best_val), best_vec


def _quotient_eigen(space: Space, sym: np.ndarray, tol: float):
    """``_min_block_eigen`` of a symmetrised quotient, blocks split where
    entries are below ``tol`` relative to the degree."""
    adj = np.abs(sym) > tol * max(1.0, space.degree)
    np.fill_diagonal(adj, True)
    return _min_block_eigen(sym, adj, tol, space.degree)


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
    returned eigenfunction is the zero-extended sphere-constant vector.
    """
    _check_origin(space, origin)
    spheres = _sphere_set(space, spheres)
    sym, root = quotient_matrix(space, spheres)
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
    serves every radius; explicit graphs go through ``sphere_union_eigen``.
    """
    _check_origin(space, origin)
    radii = range(space.n_classes + 1)
    if space.is_scheme:
        sym, _ = quotient_matrix(space, radii)
        lams = [_quotient_eigen(space, sym[:r + 1, :r + 1], tol)[0] for r in radii]
    else:
        lams = [sphere_union_eigen(space, origin, range(r + 1), tol).value
                for r in radii]
    return tuple(lams), tuple(np.cumsum(space.valencies).tolist())


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
