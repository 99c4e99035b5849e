"""Designs, the spectral lower bound, and the covering-chain certificate.

A design of strength t is a weighted vertex set on which every Laplacian
eigenfunction with eigenvalue in (0, t) sums to zero.  The main bound says
|D| >= (t - lambda)/t * N/|Omega| for any subset Omega with Dirichlet
eigenvalue lambda < t; the mechanism behind it is made explicit by summing
translated copies of Omega's first eigenfunction and checking the chain

    |D| * |Omega| >= |union Omega_i| >= |supp F| >= (t - lambda)/t * N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import (_CHUNK, DEFAULT_TOL, Records, SchemeError, Space, SpectralData,
                     _check_origin, _neighbours, is_metric)
from .spectra import (SubsetEig, ball_eigenvalues, dirichlet_form, sphere_union_eigen,
                      subset_eigen)

STRENGTH_UNBOUNDED = math.inf


@dataclass(frozen=True)
class Design:
    """A weighted finite vertex set."""

    points: np.ndarray             # sorted vertex ids, no duplicates
    weights: np.ndarray            # positive integers

    @property
    def size(self) -> int:
        """Total weight (cardinality for an unweighted design)."""
        return int(self.weights.sum())

    def indicator(self, n: int) -> np.ndarray:
        w = np.zeros(n)
        w[self.points] = self.weights
        return w


def make_design(points, weights=None, n_vertices: int | None = None) -> Design:
    points = np.asarray(list(points), dtype=int)
    if weights is None:
        weights = np.ones(len(points), dtype=int)
    else:
        weights = np.asarray(list(weights), dtype=int)
    if len(points) == 0:
        raise ValueError("design is empty")
    fault = _design_fault(points, weights, n_vertices)
    if fault is not None:
        raise ValueError(fault[1])
    order = np.argsort(points)
    return Design(points=points[order], weights=weights[order])


def _design_fault(points: np.ndarray, weights: np.ndarray, n_vertices: int | None):
    """(index, reason) of the first entry ``make_design`` rejects, or None."""
    top = math.inf if n_vertices is None else n_vertices
    _, first, inverse = np.unique(points, return_index=True, return_inverse=True)
    faults = {"duplicate design points; use weights instead":
              first[inverse] != np.arange(len(points)),
              "weights must be >= 1": weights < 1,
              "design point out of range": (points < 0) | (points >= top)}
    return min(((int(np.argmax(bad)), reason) for reason, bad in faults.items()
                if bad.any()), default=None)


def load_design(path: str, n_vertices: int | None = None) -> Design:
    """Read a design file: one ``<vertex> [weight]`` record per line."""
    rec = Records(path)
    if not len(rec):
        raise ValueError(f"{path}: empty design file")
    # a record without a weight has weight 1
    points, weights = rec.table(None, "vertex [weight]", missing=1).T
    fault = _design_fault(points, weights, n_vertices)
    if fault is not None:
        raise rec.error(*fault)
    order = np.argsort(points)
    return Design(points=points[order], weights=weights[order])


@dataclass(frozen=True)
class StrengthReport:
    strength: float                          # inf when all residuals vanish
    per_eigenspace: list[tuple[float, float]]   # (theta_j, ||E_j w_D|| / ||w_D||)


def _check_t(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")


def _below(theta: float, t: float, tol: float) -> bool:
    # strict theta < t, robust to eigensolver noise at theta == t
    return theta < t - tol * max(1.0, t)


def worst_residual(residuals, t: float, tol: float = DEFAULT_TOL) -> float:
    """Largest residual over the eigenspaces ``_below`` t, or 0.0 if none."""
    return max((res for theta, res in residuals if _below(theta, t, tol)),
               default=0.0)


def _eigenspace_residuals(spectral: SpectralData, w: np.ndarray):
    res = np.linalg.norm(spectral.components(w)[1:], axis=1) / np.linalg.norm(w)
    return list(zip(spectral.eigenvalues[1:].tolist(), res.tolist()))


def verify_design(space: Space, spectral: SpectralData, design: Design,
                  t: float, tol: float = DEFAULT_TOL):
    """Check the strength-t condition; returns (ok, residual list).

    ok is True iff ||E_j w_D|| <= tol * ||w_D|| for every eigenspace with
    eigenvalue strictly between 0 and t.
    """
    _check_t(t)
    residuals = _eigenspace_residuals(spectral, design.indicator(space.n_vertices))
    return worst_residual(residuals, t, tol) <= tol, residuals


def design_strength(space: Space, spectral: SpectralData, design: Design,
                    tol: float = DEFAULT_TOL) -> StrengthReport:
    """Largest t for which the design verifies (inf if all residuals vanish)."""
    residuals = _eigenspace_residuals(spectral, design.indicator(space.n_vertices))
    for theta, res in residuals:
        if res > tol:
            return StrengthReport(strength=theta, per_eigenspace=residuals)
    return StrengthReport(strength=STRENGTH_UNBOUNDED, per_eigenspace=residuals)


@dataclass(frozen=True)
class BoundReport:
    t: float
    omega: str                     # human-readable subset descriptor
    lam: float
    vol_omega: int
    vol_space: int
    bound: float
    vacuous: bool
    subset_eig: SubsetEig = field(repr=False, default=None)


def _bound_report(t: float, desc: str, lam: float, vol: int, n: int, tol: float,
                  eig: SubsetEig | None = None) -> BoundReport:
    vacuous = not _below(lam, t, tol)
    bound = 0.0 if vacuous else (t - lam) / t * n / vol
    return BoundReport(t=t, omega=desc, lam=lam, vol_omega=vol, vol_space=n,
                       bound=bound, vacuous=vacuous, subset_eig=eig)


def design_bound(space: Space, spectral: SpectralData, t: float,
                 subset=None, spheres=None, tol: float = DEFAULT_TOL) -> BoundReport:
    """Evaluate the lower bound for one subset.

    Unions of spheres go through ``sphere_union_eigen``, the quotient route
    on a scheme; arbitrary subsets use the dense route.
    """
    _check_t(t)
    if (subset is None) == (spheres is None):
        raise ValueError("give exactly one of subset or spheres")
    if spheres is not None:
        eig = sphere_union_eigen(space, spectral.origin, spheres, tol)
        desc = "spheres " + ",".join(map(str, eig.spheres))
    else:
        eig = subset_eigen(space, subset, tol)
        desc = f"set of {len(eig.omega)} vertices"
    return _bound_report(t, desc, eig.value, len(eig.omega), space.n_vertices,
                         tol, eig)


def design_bound_auto(space: Space, spectral: SpectralData, t: float,
                      tol: float = DEFAULT_TOL):
    """Sweep balls of radius 0..m around the origin; returns (reports, best_report).

    The ball eigenvalues and volumes depend on neither t nor ``spectral``
    beyond its origin: ``ball_eigenvalues`` computes them once per origin
    and ``tol`` (the clamp and the block split depend on it) and keeps them
    on the space, so every further t costs O(m) arithmetic.  The reports carry
    ``subset_eig=None``; ``design_bound(..., spheres=range(r + 1))`` gives
    ball r with its Omega and eigenfunction.  best maximises the bound;
    ties go to the smallest radius.  All-vacuous sweeps return best = None.
    """
    _check_t(t)
    lams, vols = ball_eigenvalues(space, spectral.origin, tol)
    reports = []
    best = None
    for radius, (lam, vol) in enumerate(zip(lams, vols)):
        rep = _bound_report(t, f"ball {radius}", lam, vol, space.n_vertices, tol)
        reports.append(rep)
        if not rep.vacuous and (best is None or rep.bound > best.bound + tol):
            best = rep
    return reports, best


# ---------------------------------------------------------------------------
# isometries and the function F


@dataclass(frozen=True)
class IsometryAction:
    """One relation-preserving vertex permutation per design point.

    ``permutations[i]`` maps design point i to the origin; row p is the
    image array, i.e. tau_i(x) = permutations[i][x].  ``validated`` means
    every permutation was checked to keep the class of every vertex pair:
    on a space that carries a metric relation-1 layer (a family or a
    loaded metric scheme file) through its relation-1 edges, which decide
    every class (see ``_validate_action``), and otherwise pair by pair.
    """

    permutations: np.ndarray       # (d, N) int
    validated: bool


def _validate_action(space: Space, design: Design, origin: int, perms: np.ndarray):
    """(index, reason) of the first permutation that is not a bijection
    taking its design point to the origin and preserving the class of every
    vertex pair, or None.  Every permutation is checked exhaustively.

    When the space carries its relation-1 layer, which certifies that p
    holds at every pair (``Space._layer1``), and that layer is metric
    (``spaces.is_metric``; the space is then a built-in family or a
    validated file), the class of a pair is its distance in the relation-1
    graph.  A bijection that maps each of the N k_1 ordered relation-1 edges
    to an edge is then an automorphism of that graph, so it keeps every
    distance and every class (Brouwer, Cohen and Neumaier, *Distance-Regular
    Graphs*, 1989), and only the edges are checked.  Graphs, other schemes
    and hand-built spaces compare all N^2 pairs.  Either way a permutation
    passes exactly when it keeps every class, so the index and reason do not
    depend on the route.
    """
    metric = space._layer1 is not None and is_metric(space._layer1)
    check = _edge_check if metric else _pair_check
    keeps = check(space.classes)
    n = space.n_vertices
    for i, (y, perm) in enumerate(zip(design.points, perms)):
        if not np.array_equal(np.sort(perm), np.arange(n)):
            return i, f"isometry {i} is not a permutation"
        if perm[y] != origin:
            return i, f"isometry {i} does not map point {y} to the origin"
        if not keeps(perm):
            return i, f"isometry {i} does not preserve relations"
    return None


def _edge_check(classes: np.ndarray):
    """A test of whether a permutation maps every relation-1 edge to one."""
    nbrs = _neighbours(classes, 1)
    return lambda perm: bool((classes[perm[:, None], perm[nbrs]] == 1).all())


def _pair_check(classes: np.ndarray):
    """A test of whether a permutation keeps the class of every pair.

    Rows are compared in chunks, so peak memory stays near ``_CHUNK``
    entries whatever N is.
    """
    n = len(classes)
    step = max(1, _CHUNK // n)
    return lambda perm: all(
        (classes[np.ix_(perm[lo:lo + step], perm)] == classes[lo:lo + step]).all()
        for lo in range(0, n, step))


def translations_to_origin(space: Space, design: Design,
                           origin: int = 0) -> IsometryAction:
    """Canonical isometries taking each design point to the origin.

    They come from ``space.translation``, which the built-in families
    carry; other spaces need a user-supplied isometry file.
    """
    _check_origin(space, origin)
    if space.translation is None:
        raise ValueError(
            f"no built-in isometry action for kind {space.kind!r}; "
            "supply an isometry file")
    perms = np.array([space.translation(y, origin) for y in design.points], dtype=int)
    fault = _validate_action(space, design, origin, perms)
    if fault is not None:
        raise ValueError(fault[1])
    return IsometryAction(permutations=perms, validated=True)


def _header_fault(rec: Records, pos: int, n: int, block: int) -> SchemeError | None:
    """The error of an isometry file's block header at record ``pos``, if
    it is not ``perm N`` once split."""
    head = rec.line(pos).split()
    try:
        if head[0] == "perm" and len(head) == 2 and rec.int_at(pos, head[1]) == n:
            return None
    except SchemeError as exc:
        return exc
    return rec.error(pos, f"expected 'perm {n}' header at block {block}")


def load_isometries(path: str, space: Space, design: Design,
                    origin: int = 0) -> IsometryAction:
    """Read an isometry file: ``perm <N>`` then N image lines per point."""
    _check_origin(space, origin)
    n = space.n_vertices
    rec = Records(path)
    heads = np.arange(0, len(rec), n + 1)
    fault, stop = None, len(rec)
    for k in np.flatnonzero(~rec.equals(heads, f"perm {n}")):
        fault = _header_fault(rec, heads[k], n, k)
        if fault is not None:
            stop = heads[k]
            break
    if fault is None and len(heads) and heads[-1] + 1 + n > len(rec):
        stop = heads[-1]
        fault = rec.error(stop, f"truncated permutation block {len(heads) - 1}")
    # the images before a bad header are read first: one of them may be the
    # first bad line
    images = np.ones(stop, bool)
    images[heads[heads < stop]] = False
    perms = rec.take(np.flatnonzero(images), None, "image")
    if fault is not None:
        raise fault
    if len(heads) != len(design.points):
        raise ValueError(
            f"{path}: {len(heads)} permutations for {len(design.points)} points")
    perms = perms.reshape(len(heads), n)
    fault = _validate_action(space, design, origin, perms)
    if fault is not None:               # block i's header is record i * (N + 1)
        raise rec.error(fault[0] * (n + 1), fault[1])
    return IsometryAction(permutations=perms, validated=True)


def build_F(space: Space, subset_eig: SubsetEig, action: IsometryAction,
            weights=None) -> np.ndarray:
    """Sum of translated copies of the subset eigenfunction.

    F(x) = sum_i w_i * psi(tau_i x); its support lies in the union of the
    pulled-back subsets.
    """
    psi = subset_eig.eigenfunction
    if psi.shape != (space.n_vertices,):
        raise ValueError("eigenfunction has wrong length")
    d = action.permutations.shape[0]
    if weights is None:
        weights = np.ones(d)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (d,):
        raise ValueError("weights do not match the number of isometries")
    F = np.zeros(space.n_vertices)
    for w, perm in zip(weights, action.permutations):
        F += w * psi[perm]
    return F


@dataclass(frozen=True)
class CoverReport:
    F: np.ndarray = field(repr=False)
    chain: tuple[float, float, float, float]
    dirichlet_lhs: float
    dirichlet_rhs: float
    max_design_residual: float
    rayleigh_lhs: float            # D[F,F]
    rayleigh_rhs: float            # t*(<F,F> - <F,1>^2/N)
    cauchy_lhs: float              # <F,F> * |supp F|
    cauchy_rhs: float              # <F,1>^2


def verify_cover_chain(space: Space, spectral: SpectralData, design: Design,
                       t: float, subset_eig: SubsetEig,
                       action: IsometryAction | None = None,
                       tol: float = DEFAULT_TOL) -> CoverReport:
    """Build F and verify the covering chain and its supporting inequalities.

    Raises if the design does not verify at strength t, if the subset
    eigenvalue is not below t, or if any chain invariant fails.
    """
    n = space.n_vertices
    lam = subset_eig.value
    if not _below(lam, t, tol):
        raise ValueError(f"vacuous: lambda(Omega) = {lam:.6g} is not below t = {t:.6g}")
    ok, _ = verify_design(space, spectral, design, t, tol)
    if not ok:
        raise ValueError(f"design does not verify at strength t = {t:.6g}")
    if action is None:
        action = translations_to_origin(space, design, spectral.origin)

    F = build_F(space, subset_eig, action, design.weights)
    omega = subset_eig.omega
    in_omega = np.zeros(n, dtype=bool)
    in_omega[omega] = True
    union = np.zeros(n, dtype=bool)
    for perm in action.permutations:
        union |= in_omega[perm]               # x is in tau_i^{-1}(Omega)
    supp = np.abs(F) > tol * np.abs(F).max()

    chain = (
        float(design.size * len(omega)),
        float(union.sum()),
        float(supp.sum()),
        (t - lam) / t * n,
    )
    ff = float(F @ F)
    f1 = float(F.sum())
    lhs = dirichlet_form(space, F)
    rhs = lam * ff
    max_res = worst_residual(_eigenspace_residuals(spectral, F), t, tol)
    report = CoverReport(
        F=F,
        chain=chain,
        dirichlet_lhs=lhs,
        dirichlet_rhs=rhs,
        max_design_residual=max_res,
        rayleigh_lhs=lhs,
        rayleigh_rhs=t * (ff - f1 ** 2 / n),
        cauchy_lhs=ff * float(supp.sum()),
        cauchy_rhs=f1 ** 2,
    )
    scale = max(1.0, abs(chain[0]))
    if not (chain[0] >= chain[1] - tol * scale
            and chain[1] >= chain[2] - tol * scale
            and chain[2] >= chain[3] - tol * scale):
        raise RuntimeError(f"covering chain not nonincreasing: {chain}")
    if lhs > rhs + tol * max(1.0, ff):
        raise RuntimeError(f"Dirichlet inequality fails: {lhs} > {rhs}")
    if max_res > tol:
        raise RuntimeError(f"F is not design-like: residual {max_res:.3e}")
    return report


# ---------------------------------------------------------------------------
# exhaustive search


def min_design_search(space: Space, spectral: SpectralData, t: float,
                      max_size: int, tol: float = DEFAULT_TOL):
    """Smallest unweighted design of strength t, by pruned exhaustive search.

    Returns (Design, size) or (None, None) when nothing of size <= max_size
    works; the design is the lexicographically first sorted tuple of that
    size.  Capped at N <= 32 and max_size <= 8.

    A built-in family (``space.translation`` set) is searched through
    vertex 0 only.  Its isometry taking a design point to 0 keeps every
    class, so it commutes with every A_i and hence with every E_j, and it
    carries a size-k design to a size-k design through 0.  So the smallest
    size is the same, and the lexicographically first design of that size,
    which the depth-first search returns, starts with 0.  Vertex 0 still
    passes the prune and leaf tests like any other point.  Files and
    graphs, which carry no isometries, try every first point.

    The columns E_j e_x come from one ``components`` call on the N unit
    vectors, which gives each of them exactly as a lone call would; the
    search never builds ``projectors``.  ``_extend`` takes the tree one
    batch of sibling nodes at a time, estimates every child's squared
    norms from its parent's before forming any, and forms only the
    children near or below the limit (see there).  Each level forms its
    children in blocks of at most ``_BLOCK`` floats (512 KiB), in a buffer
    of its own that outlives the call, and two more blocks are working space:
    (max_size + 2) blocks, at most 5 MiB, whatever N is.  Beyond its block
    a level holds only the indices and estimates of its batch's children
    that pass the estimate; the traced peak is 5.7 MiB on C(32) at t = 3.9
    and 6.7 MiB on H(5,2) at t = 6, both at max_size 8.
    """
    n = space.n_vertices
    if n > 32 or max_size > 8:
        raise ValueError("search caps: N <= 32 and max_size <= 8")
    _check_t(t)
    active = [j for j in range(1, spectral.n_eigenspaces)
              if _below(spectral.eigenvalues[j], t, tol)]
    if not active:
        return make_design([0], n_vertices=n), 1
    # cols[x, a] = E_j e_x for the a-th active j; reach = most one point cancels
    cols = spectral.components(np.eye(n))[:, active]
    reach = np.linalg.norm(cols, axis=2).max(axis=0)
    # unit[a, x] = ||E_j e_x||^2, the last term of a child's estimate
    unit = np.einsum("xay,xay->ax", cols, cols)
    # work[0] and work[1] are working space, work[left + 1] a level's children
    work = np.empty((max_size + 2, max(1, _BLOCK // cols[0].size), *cols.shape[1:]))
    root = np.zeros((1, *cols.shape[1:]))
    firsts = 1 if space.translation is not None else n
    for size in range(1, max_size + 1):
        # row `left`: the prune limit with that many points left, its square
        limit = np.arange(-1, size)[:, None] * reach + tol * math.sqrt(size)
        lim2 = limit ** 2
        found = _extend((cols, limit, lim2, unit - lim2[:, :, None], work), root,
                        np.zeros((1, len(active))), np.zeros((1, 0), int), size, firsts)
        if found is not None:
            return make_design(found, n_vertices=n), size
    return None, None


# slack on squared norms between a child's estimate and its exact test
_SLACK = 1e-9
# floats of child vectors a level forms at a time
_BLOCK = _CHUNK // 16


def _extend(search, partials, norms2, chosen, left, stop):
    """First ascending completion, in lexicographic order, of a row of
    ``chosen`` by ``left`` points, the next of them below ``stop``, or None.

    The rows of ``chosen`` (B, depth) are a batch of nodes of one depth of
    the search tree, in lexicographic order; ``partials[b]`` (a, N) holds
    E_j 1_S for node b's set S and every active j, and ``norms2[b]`` (a,)
    its squared norms.  A child S + x is kept while the points after it can
    still cancel each component, ||E_j 1_{S+x}|| <= (left - 1) reach_j + tol;
    with none after it (left == 1) this is the strength-t test itself.

    For an orthogonal projector E_j (Delsarte, 1973),
    ||E_j (1_S + e_x)||^2 = ||E_j 1_S||^2 + 2 (E_j 1_S)_x + ||E_j e_x||^2,
    and (E_j 1_S)_x is entry x of the parent's own vector, so every child
    of the batch is estimated in O(a) before any is formed.  A child whose
    estimate exceeds the squared limit by more than ``_SLACK`` is pruned
    unformed.  The rest are formed as ``partial + cols[x]``, the additions
    of a walk one node at a time in the same order.  Those within
    ``_SLACK`` of the squared limit take the exact ``np.linalg.norm`` test
    above; those below it by more would pass that test for sure, and carry
    their estimate down as their squared norms.  The estimate differs from
    the exact squared norm only by rounding: no term exceeds |S + x|^2 <= 64,
    the projectors are idempotent to rounding, and a carried estimate adds
    one more rounding per level, so the error stays near 1e-14, far below
    ``_SLACK`` = 1e-9.  Every keep-or-prune decision, the leaf test and the
    design returned are therefore those of the exact test on every child.

    Children are formed in blocks of at most ``_BLOCK`` floats, in
    ``work[left + 1]``, and each block's survivors are searched as the next
    batch before the next block is formed, so the first hit is the
    lexicographically first.
    """
    cols, limits, lim2s, unit_less, work = search
    n = len(cols)
    limit, lim2 = limits[left], lim2s[left]
    # margin[b, a, x]: child S_b + x's estimated squared norm, less limit^2
    margin = np.multiply(partials, 2, out=work[0, :len(chosen)])
    margin += unit_less[left]
    margin += norms2[:, :, None]
    # a maximum per active j: on large batches, twice as fast as max(axis=1)
    worst = margin[:, 0].copy()
    for j in range(1, len(lim2)):
        np.maximum(worst, margin[:, j], out=worst)
    ok = worst <= _SLACK
    # children are ascending, leave room for the points after them, and at
    # the root lie below stop
    ok[:, min(stop, n - left + 1):] = False
    if chosen.shape[1]:
        ok &= np.arange(n) > chosen[:, -1:]
    bs, xs = np.nonzero(ok)
    sure = worst[bs, xs] <= -_SLACK
    est = margin[bs, :, xs] + lim2                      # (K, a)
    step = work.shape[1]
    for lo in range(0, len(bs), step):
        b, x = bs[lo:lo + step], xs[lo:lo + step]
        # partial + cols[x], in buffers that outlive the call; with out=,
        # take's default mode="raise" would buffer a copy
        children = np.take(partials, b, axis=0, out=work[left + 1, :len(b)], mode="clip")
        children += np.take(cols, x, axis=0, out=work[1, :len(b)], mode="clip")
        keep, sq = sure[lo:lo + step], est[lo:lo + step]
        if not keep.all():
            exact = np.flatnonzero(~keep)
            norms = np.linalg.norm(children[exact], axis=2)
            keep, sq = keep.copy(), sq.copy()
            keep[exact] = (norms <= limit).all(axis=1)
            sq[exact] = norms ** 2
            children, sq, b, x = children[keep], sq[keep], b[keep], x[keep]
        if not len(b):
            continue
        if left == 1:
            return [*chosen[b[0]].tolist(), int(x[0])]
        hit = _extend(search, children, sq, np.concatenate((chosen[b], x[:, None]), axis=1),
                      left - 1, n)
        if hit is not None:
            return hit
    return None
