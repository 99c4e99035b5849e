"""Inputs and reference values built without designlab.

Everything here comes from the definitions of the spaces (vertex labels,
distances) and from closed forms (spectra, intersection arrays, Bessel
zeros, known designs and lattice densities), so the checks compare the
program against a source that shares no code with it.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

# ---------------------------------------------------------------------------
# vertex labels and pair classes, in the orders designlab documents


def hamming_words(n: int, q: int) -> np.ndarray:
    """Vertex x of H(n,q) is the word whose digit i is (x // q**i) % q."""
    return (np.arange(q ** n)[:, None] // q ** np.arange(n)[None, :]) % q


def word_ids(words: np.ndarray, q: int) -> np.ndarray:
    return words @ (q ** np.arange(words.shape[-1]))


def hamming_classes(n: int, q: int) -> np.ndarray:
    w = hamming_words(n, q)
    return (w[:, None, :] != w[None, :, :]).sum(axis=2)


def johnson_sets(n: int, w: int) -> list[tuple[int, ...]]:
    """w-subsets of {1..n} in colex order (largest element compared first)."""
    return sorted(combinations(range(1, n + 1), w), key=lambda s: s[::-1])


def johnson_classes(n: int, w: int) -> np.ndarray:
    sets = johnson_sets(n, w)
    masks = np.zeros((len(sets), n), dtype=int)
    for v, s in enumerate(sets):
        masks[v, [e - 1 for e in s]] = 1
    return w - masks @ masks.T


def cycle_classes(n: int) -> np.ndarray:
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return np.minimum(d, n - d)


def petersen_classes() -> np.ndarray:
    """Kneser graph K(5,2) as a graph class matrix: 0 equal, 1 edge, 2 other."""
    sets = [set(s) for s in combinations(range(5), 2)]
    cls = np.array([[0 if a == b else (1 if not a & b else 2) for b in sets]
                    for a in sets])
    return cls


def relabel(classes: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Class matrix after renaming vertex v to perm[v]."""
    inv = np.argsort(perm)
    return classes[np.ix_(inv, inv)]


# ---------------------------------------------------------------------------
# file writers (the formats in the designlab README)


def write_scheme(path, classes: np.ndarray, m: int) -> None:
    n = classes.shape[0]
    u, v = np.triu_indices(n, 1)
    body = "\n".join(map("rel {} {} {}".format, u.tolist(), v.tolist(),
                         classes[u, v].tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# relabelled scheme, {n} vertices\nscheme {n} {m}\n{body}\n")


def write_graph(path, classes: np.ndarray, comment: str = "# graph") -> None:
    n = classes.shape[0]
    u, v = np.nonzero(np.triu(classes == 1, 1))
    body = "\n".join(map("edge {} {}".format, u.tolist(), v.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{comment}\ngraph {n}\n{body}\n")


def write_ids(path, ids, comment: str = "# vertex ids") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(comment + "\n" + "".join(f"{int(x)}\n" for x in ids))


def write_perms(path, perms) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for perm in perms:
            fh.write(f"perm {len(perm)}\n" + "".join(f"{int(x)}\n" for x in perm))


# ---------------------------------------------------------------------------
# distance-regular parameters and closed forms


def intersection_array(family: str, **p) -> tuple[list[int], list[int], list[int]]:
    """(b_i, c_i, a_i) for i = 0..diameter."""
    if family == "hamming":
        n, q = p["n"], p["q"]
        d = n
        b = [(n - i) * (q - 1) for i in range(d + 1)]
        c = list(range(d + 1))
        a = [i * (q - 2) for i in range(d + 1)]
    elif family == "johnson":
        n, w = p["n"], p["w"]
        d, k = w, w * (n - w)
        b = [(w - i) * (n - w - i) for i in range(d + 1)]
        c = [i * i for i in range(d + 1)]
        a = [k - bi - ci for bi, ci in zip(b, c)]
    elif family == "cycle":
        n = p["n"]
        d = n // 2
        b = [2] + [1] * (d - 1) + [0]
        c = [0] + [1] * (d - 1) + [2 if n % 2 == 0 else 1]
        a = [0] * d + [0 if n % 2 == 0 else 1]
    elif family == "petersen":
        b, c, a = [3, 2, 0], [0, 1, 1], [0, 0, 2]
    else:
        raise ValueError(family)
    return b, c, a


def p1_table(family: str, **p) -> np.ndarray:
    """p^k_{1j} of a distance-regular graph: c_k at j=k-1, a_k at k, b_k at k+1."""
    b, c, a = intersection_array(family, **p)
    d = len(b) - 1
    t = np.zeros((d + 1, d + 1), dtype=int)
    for k in range(d + 1):
        t[k, k] = a[k]
        if k > 0:
            t[k, k - 1] = c[k]
        if k < d:
            t[k, k + 1] = b[k]
    return t


def spectrum(family: str, **p) -> list[tuple[float, int]]:
    """Distinct Laplacian eigenvalues (ascending) with multiplicities."""
    if family == "hamming":
        n, q = p["n"], p["q"]
        return [(float(q * k), math.comb(n, k) * (q - 1) ** k) for k in range(n + 1)]
    if family == "johnson":
        n, w = p["n"], p["w"]
        return [(float(k * (n + 1 - k)),
                 math.comb(n, k) - (math.comb(n, k - 1) if k else 0))
                for k in range(w + 1)]
    if family == "cycle":
        n = p["n"]
        return [(2 - 2 * math.cos(2 * math.pi * j / n), 1 if j == 0 or 2 * j == n else 2)
                for j in range(n // 2 + 1)]
    if family == "petersen":
        return [(0.0, 1), (2.0, 5), (5.0, 4)]
    raise ValueError(family)


def ball1_eigen(k: int, a1: int) -> float:
    """Dirichlet eigenvalue of a radius-1 ball in a distance-regular graph."""
    return (2 * k - a1 - math.sqrt(a1 * a1 + 4 * k)) / 2


def cycle_ball_eigen(r: int) -> float:
    """Dirichlet eigenvalue of a radius-r ball (a path of 2r+1 vertices) in C(n)."""
    return 2 - 2 * math.cos(math.pi / (2 * r + 2))


def ball_eigen(family: str, radius: int, **p) -> float:
    """Ball eigenvalue from the symmetrised tridiagonal sphere quotient,
    built from the closed-form intersection array."""
    b, c, a = intersection_array(family, **p)
    k = b[0]
    r = radius
    mat = np.diag([float(k - a[i]) for i in range(r + 1)])
    for i in range(r):
        mat[i, i + 1] = mat[i + 1, i] = -math.sqrt(b[i] * c[i + 1])
    return float(np.linalg.eigvalsh(mat)[0])


def ball_sizes(family: str, **p) -> list[int]:
    b, c, _ = intersection_array(family, **p)
    sizes = [1]
    for i in range(1, len(b)):
        sizes.append(sizes[-1] * b[i - 1] // c[i])
    return [sum(sizes[:r + 1]) for r in range(len(sizes))]


# ---------------------------------------------------------------------------
# designs built apart from the program


def below(theta: float, t: float) -> bool:
    return theta < t - 1e-9 * max(1.0, t)


def design_size_bound(family: str, t: float, **p) -> int:
    """Size of a design of strength t that is known without the program.

    Hamming: a point (nothing to kill) or the sum-zero code, an orthogonal
    array of strength n-1.  Johnson: a point, the n cyclic shifts of an
    interval (a 1-design), or the whole space.  Cycle: d equally spaced
    points, d the least divisor of n above the highest killed frequency.
    """
    if family == "hamming":
        n, q = p["n"], p["q"]
        top = max((k for k in range(1, n + 1) if below(q * k, t)), default=0)
        return 1 if top == 0 else (q ** (n - 1) if top < n else q ** n)
    if family == "johnson":
        n, w = p["n"], p["w"]
        top = max((k for k in range(1, w + 1) if below(k * (n + 1 - k), t)), default=0)
        return 1 if top == 0 else (n if top == 1 else math.comb(n, w))
    if family == "cycle":
        n = p["n"]
        top = max((j for j in range(1, n // 2 + 1)
                   if below(2 - 2 * math.cos(2 * math.pi * j / n), t)), default=0)
        return min(d for d in range(1, n + 1) if n % d == 0 and d > top)
    raise ValueError(family)


def extended_hamming_844() -> np.ndarray:
    """Codewords of the [8,4,4] extended Hamming code as (16, 8) bit rows."""
    gen = np.array([[1, 0, 0, 0, 0, 1, 1, 1],
                    [0, 1, 0, 0, 1, 0, 1, 1],
                    [0, 0, 1, 0, 1, 1, 0, 1],
                    [0, 0, 0, 1, 1, 1, 1, 0]])
    coeffs = np.array(list(product((0, 1), repeat=4)))
    return coeffs @ gen % 2


def even_weight(n: int) -> np.ndarray:
    words = hamming_words(n, 2)
    return words[words.sum(axis=1) % 2 == 0]


FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
              (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def hamming_design_ok(words: np.ndarray, strength: int) -> bool:
    """Binary orthogonal array test: every character of weight 1..strength
    sums to zero over the words."""
    n = words.shape[1]
    for wt in range(1, strength + 1):
        for support in combinations(range(n), wt):
            if ((-1) ** words[:, list(support)].sum(axis=1)).sum() != 0:
                return False
    return True


def cycle_design_ok(points, n: int, top: int) -> bool:
    """Points of C(n) kill the frequencies 1..top."""
    z = np.exp(2j * np.pi * np.outer(np.arange(1, top + 1), np.asarray(points)) / n)
    return bool(np.abs(z.sum(axis=1)).max() < 1e-9)


def union_of_balls(classes: np.ndarray, points, radius: int) -> int:
    return int((classes[np.asarray(points)] <= radius).any(axis=0).sum())


# ---------------------------------------------------------------------------
# flat torus


BESSEL_ZEROS = {-0.5: math.pi / 2, 0.5: math.pi, 0.0: 2.404825557695773}

BEST_LATTICE_DENSITY = {
    1: 1.0,
    2: math.pi / math.sqrt(12),
    3: math.pi / math.sqrt(18),
    8: math.pi ** 4 / 384,
    24: math.pi ** 12 / math.factorial(12),
}


def ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def density_bound(d: int) -> float:
    """v_d^2 (j/4pi)^d ((d+2)/d)^(d/2) (d+2)/2, for the dims with a known zero."""
    j = BESSEL_ZEROS[d / 2 - 1]
    return ball_volume(d) ** 2 * (j / (4 * math.pi)) ** d * ((d + 2) / d) ** (d / 2) * (d + 2) / 2


def covolume_bound(d: int, s: float) -> float:
    """v_d (j/(2 pi s))^d rho^(-d/2) / (1 - rho) at rho = d/(d+2)."""
    j = BESSEL_ZEROS[d / 2 - 1]
    rho = d / (d + 2)
    return ball_volume(d) * (j / (2 * math.pi * s)) ** d * rho ** (-d / 2) / (1 - rho)
