"""Finite symmetric spaces: graphs and symmetric association schemes.

A space is a finite vertex set together with a classification of every
unordered pair into relation classes 0..m, class 0 being equality.  Graphs
are the degenerate 3-class case {equal, adjacent, other}.  The Bose-Mesner
spectral algebra (projectors, eigenmatrix, zonal sphere functions) is
computed here as well: for schemes from the (m+1) x (m+1) quotient of the
Laplacian on sphere-constant functions, for explicit graphs from a dense
eigensolve.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

import numpy as np

SIZE_CAP = 4096          # largest N: the N x N class matrix, 32 MiB of int16, must fit
CLASS_DTYPE = np.int16   # every class matrix built here; signed, so differences
                         # of classes cannot wrap, and wide enough for m < SIZE_CAP
DEFAULT_TOL = 1e-9
_CHUNK = 1 << 20         # class-matrix entries gathered or compared at a time
_P_TABLE_CAP = 1 << 32   # bytes: the largest (m+1)^3 int64 p^k_ij table built


class SchemeError(ValueError):
    """Invalid space construction or scheme axiom violation."""


class _BuiltOnRead:
    """A dataclass field given either its value or a zero-argument builder.

    A builder is called the first time the field is read, and its value
    is kept in its place.
    """

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Space:
    """A vertex set with a symmetric pair classification.

    ``classes[x, y]`` is the relation class of the pair (x, y); class 0 is
    the diagonal.  ``valencies[i]`` counts the class-i partners of any
    vertex.  ``intersection_numbers[k, i, j]`` is p^k_ij, present for every
    scheme this module builds and None for graphs.  ``classes``, ``labels``
    and ``intersection_numbers`` take a value or a builder: the built-in
    families pass builders, so the N x N class matrix exists only once
    vertex-level work reads it, and the (m+1)^3 p table only once scheme
    validation or a relation other than 1 reads it.  ``rows(xs)`` gives the
    class-matrix rows of the vertices ``xs`` from whatever ``classes``
    holds: the matrix once built, the family's builder before that, so
    reading one row builds no N x N matrix.  ``translation(y, o)`` is the
    image array of an isometry taking y to o; the built-in families carry
    theirs, and files and graphs, which have None, need an isometry file.
    The families and ``load_space`` build ``classes`` as ``CLASS_DTYPE``
    (int16), a quarter of int64; a hand-built ``Space`` may pass any
    integer dtype.
    ``_ball_sweeps`` is ``spectra.ball_eigenvalues``'s cache, per (origin, tol).
    ``_layer1`` is B_1 = p[:, 1, :], carried exactly when p is known to hold
    at every pair, and set by ``_finish_scheme``: a family's from its array,
    a file's from the p its validation checked.  Graphs, hand-built spaces
    and ``dataclasses.replace`` copies have None, and ``_layer`` reads p.
    """

    kind: str                      # "graph", "scheme", "hamming", "johnson", "cycle"
    n_vertices: int
    n_classes: int                 # m: classes are 0..m
    classes: np.ndarray = field(repr=False)          # (N, N) CLASS_DTYPE or any int
    valencies: np.ndarray          # (m+1,) int
    laplacian_class: int = 1
    intersection_numbers: np.ndarray | None = None   # (m+1, m+1, m+1) int
    labels: tuple | None = field(default=None, repr=False)  # words, subsets
    translation: Callable[[int, int], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _ball_sweeps: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    _layer1: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def is_scheme(self) -> bool:
        return self.kind != "graph"

    @property
    def degree(self) -> int:
        """Valency of the relation used to define the Laplacian."""
        return int(self.valencies[self.laplacian_class])

    def adjacency(self, i: int) -> np.ndarray:
        """Dense 0/1 adjacency matrix of relation class i."""
        return (self.classes == i).astype(float)

    def laplacian(self) -> np.ndarray:
        r = self.laplacian_class
        return self.degree * np.eye(self.n_vertices) - self.adjacency(r)

    def rows(self, xs) -> np.ndarray:
        """Rows ``xs`` of the class matrix, built only for those vertices
        while the matrix itself is unbuilt."""
        classes = vars(self)["classes"]
        return classes(xs) if callable(classes) else classes[xs]

    def sphere(self, origin: int, i: int) -> np.ndarray:
        """Vertices in relation class i with ``origin``."""
        return np.flatnonzero(self.classes[origin] == i)

    def ball(self, origin: int, radius: int) -> np.ndarray:
        """Vertices in classes 0..radius around ``origin``."""
        return np.flatnonzero(self.classes[origin] <= radius)


# set after @dataclass, so that the fields keep repr=False and classes stays required
Space.classes = _BuiltOnRead("classes")
Space.labels = _BuiltOnRead("labels")
Space.intersection_numbers = _BuiltOnRead("intersection_numbers")


@dataclass(frozen=True)
class SpectralData:
    """Laplacian eigenstructure of a space, anchored at an origin vertex.

    ``eigenvalues`` are the distinct Laplacian eigenvalues, ascending from
    0.  ``components(w)`` is the (k, N) array whose row j is E_j w, the
    projection of w onto eigenspace j; a (B, N) stack of functions gives
    the (B, k, N) array of their components, equal to B lone calls to
    rounding and exactly for unit vectors.  ``eigenmatrix[i, j]`` is the
    eigenvalue of adjacency class i on eigenspace j, and ``zonal[j, i]``
    the value of the j-th zonal sphere function on class-i vertices
    (normalised to 1 at the origin).  The (k, N, N) projectors E_j are
    built by ``build_projectors`` only when ``projectors`` is first read;
    nothing in this package reads them, ``components`` serves every route.
    """

    origin: int
    eigenvalues: np.ndarray        # (k,)
    multiplicities: np.ndarray     # (k,) int
    eigenmatrix: np.ndarray        # (m+1, k)
    zonal: np.ndarray              # (k, m+1)
    components: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    build_projectors: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @property
    def n_eigenspaces(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def projectors(self) -> np.ndarray:
        """(k, N, N) eigenspace projectors, built on first read and kept."""
        return self.build_projectors()


@dataclass
class ValidationReport:
    valid: bool
    failures: list[str]
    intersection_numbers: np.ndarray | None = None


# ---------------------------------------------------------------------------
# built-in families


def component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Connected components of an undirected graph given as a dense 0/1 matrix.

    Every vertex is labelled with the lowest vertex of its component.  Each
    round lowers a label to the least label among its neighbours and then
    jumps it along the label chain, until nothing changes.
    """
    src, dst = np.nonzero(adjacency)
    labels = np.arange(adjacency.shape[0])
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, src, labels[dst])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            return labels
        labels = lowered


def _check_connected(r: int, n_comp: int) -> None:
    if n_comp != 1:
        raise SchemeError(
            f"relation class {r} is disconnected ({n_comp} components); "
            "pick another --relation"
        )


def _finish_space(kind, classes, m, laplacian_class) -> Space:
    """A space from its whole class matrix, as a file gives it.  A graph is
    counted for regularity and connectivity at vertex level; a scheme is
    finished as a family is, with the p that ``validate_scheme`` certifies."""
    _check_relation(laplacian_class, m)
    space = Space(kind=kind, n_vertices=classes.shape[0], n_classes=m, classes=classes,
                  valencies=np.bincount(classes[0], minlength=m + 1),
                  laplacian_class=laplacian_class)
    if kind == "graph":
        counts = _class_counts(classes, m)
        if not (counts == counts[0]).all():
            bad = int(np.argwhere((counts != counts[0]).any(axis=1))[0, 0])
            raise SchemeError(f"space is not regular: witness vertex {bad}")
        _check_connected(laplacian_class,
                         len(np.unique(component_labels(classes == laplacian_class))))
        return space
    report = validate_scheme(space)
    if not report.valid:
        raise SchemeError(f"scheme axiom violation: {report.failures[0]}")
    object.__setattr__(space, "intersection_numbers", report.intersection_numbers)
    return _finish_scheme(space, report.intersection_numbers[:, 1, :])


def _class_counts(classes: np.ndarray, m: int) -> np.ndarray:
    """counts[x, i] = #{y : c(x, y) = i}, for classes in 0..m, counted in
    rows of about ``_CHUNK / 8`` entries, so the int64 cells stay near 1 MiB."""
    n = classes.shape[0]
    counts = np.empty((n, m + 1), dtype=np.intp)
    step = max(1, (_CHUNK // 8) // n)
    for lo in range(0, n, step):
        rows = classes[lo:lo + step]
        cells = rows + (m + 1) * np.arange(len(rows))[:, None]
        counts[lo:lo + step] = np.bincount(
            cells.ravel(), minlength=len(rows) * (m + 1)).reshape(-1, m + 1)
    return counts


def _check_relation(r: int, m: int) -> None:
    if not 1 <= r <= m:
        raise SchemeError(f"laplacian class {r} out of range 1..{m}")


def _family_space(kind, n, b, c, rows, laplacian_class, labels, translation) -> Space:
    """A built-in family's space from its intersection array
    {b_0, ..., b_{m-1}; c_1, ..., c_m}.

    The family is a distance-regular graph whose pair class is the
    distance, so the array fixes the valencies, k_{i+1} = k_i b_i / c_{i+1},
    and the relation-1 layer B_1 = p[:, 1, :], with p^k_{1,k-1} = c_k,
    p^k_{1,k+1} = b_k and p^k_{1k} = k_1 - b_k - c_k (Brouwer, Cohen and
    Neumaier, *Distance-Regular Graphs*, 1989, 4.1).  The space carries
    B_1 as ``_layer1``; its p is built from m+2 class-matrix rows, by
    ``_intersection_numbers``, when ``intersection_numbers`` is first read.
    ``rows(xs)`` returns the class-matrix rows of the vertices ``xs``; it
    is the space's ``classes`` builder, which builds the whole matrix when
    ``classes`` is first read, called with no argument.  A scheme by
    construction, the family goes straight to ``_finish_scheme``.
    """
    m = len(b)
    _check_relation(laplacian_class, m)
    _check_p_size(m)
    valencies = [1]
    for b_i, c_next in zip(b, c):
        valencies.append(valencies[-1] * b_i // c_next)
    b, c = np.array([*b, 0]), np.array([0, *c])     # b_m = c_0 = 0
    layer1 = np.diag(b[:-1], 1) + np.diag(c[1:], -1) + np.diag(b[0] - b - c)
    space = Space(
        kind=kind,
        n_vertices=n,
        n_classes=m,
        classes=lambda xs=slice(None): rows(np.arange(n)[xs]),
        valencies=np.array(valencies),
        laplacian_class=laplacian_class,
        intersection_numbers=lambda: _intersection_numbers(rows, m),
        labels=labels,
        translation=translation,
    )
    return _finish_scheme(space, layer1)


def _finish_scheme(space: Space, layer1: np.ndarray) -> Space:
    """A certified scheme, family or file, carrying B_1 as ``_layer1``; relation
    r is connected when the spheres B_r reaches from sphere 0 hold all N vertices."""
    object.__setattr__(space, "_layer1", layer1)
    r = space.laplacian_class
    reached = component_labels(_layer(space, r) > 0) == 0
    _check_connected(r, space.n_vertices // int(space.valencies[reached].sum()))
    return space


def _layer(space: Space, r: int) -> np.ndarray:
    """B_r = p[:, r, :], so B_r[k, j] = p^k_{rj}: the carried ``_layer1``
    for r = 1, else read from the p table."""
    if r == 1 and space._layer1 is not None:
        return space._layer1
    if space.intersection_numbers is None:
        raise ValueError("space has no intersection numbers; validate it first")
    return space.intersection_numbers[:, r, :]


def _check_p_size(m: int) -> None:
    """Refuse an (m+1)^3 int64 p table over ``_P_TABLE_CAP`` bytes."""
    size = 8 * (m + 1) ** 3
    if size > _P_TABLE_CAP:
        raise SchemeError(f"p^k_ij for m = {m} needs {size / 2 ** 30:.1f} GiB "
                          f"> cap {_P_TABLE_CAP / 2 ** 30:.0f} GiB")


def _intersection_numbers(row_of, m: int) -> np.ndarray:
    """p^k_ij read off the pair (0, y), y the first class-k vertex in row 0.

    ``row_of(xs)`` gives the class-matrix rows of the vertices ``xs``, and
    m+2 rows are read.  The space must be regular, so that every class
    that occurs occurs in row 0.  Correct for genuine schemes;
    ``validate_scheme`` checks the values against every pair.  A table over
    ``_P_TABLE_CAP`` bytes is refused before anything is allocated.
    """
    _check_p_size(m)
    p = np.zeros((m + 1, m + 1, m + 1), dtype=int)
    for k, _, layer in _p_layers(row_of, m):
        p[k] = layer
    return p


def _p_layers(row_of, m: int):
    """(k, y, p^k) for each class k in row 0, p^k read off the pair (0, y),
    y the first class-k vertex: one (m+1) x (m+1) layer at a time.  Row 0
    is widened to ``intp``, as (m+1)^2 passes int16 from m = 181."""
    row0 = row_of(np.arange(1))[0]
    ks, firsts = np.unique(row0, return_index=True)
    row0 = row0.astype(np.intp)
    for k, y, row in zip(ks, firsts, row_of(firsts)):
        yield k, y, np.bincount(row0 * (m + 1) + row,
                                minlength=(m + 1) ** 2).reshape(m + 1, m + 1)


def hamming(n: int, q: int, laplacian_class: int = 1) -> Space:
    """Hamming scheme H(n, q): words of length n over {0..q-1}.

    Vertex x encodes the word with digit i equal to (x // q**i) % q; the
    relation class of a pair is its Hamming distance.  The isometry taking
    y to o adds o - y to every word, coordinatewise mod q.  The digit table
    is built on the first vertex-level read.

    For q = 2 the digits are the bits of x, so the class of (x, y) is the
    popcount of x ^ y, read from a table of the N popcounts, the isometry
    is x -> x ^ y ^ o, and the digit table serves only the labels.  Rows
    are built in blocks of about ``_CHUNK / 64`` entries, XORed as uint16
    and read from the table straight into the int16 output, so no
    temporary exceeds 256 KiB.
    """
    if q < 2 or n < 1:
        raise SchemeError("hamming requires q >= 2 and n >= 1")
    if q > SIZE_CAP or n > SIZE_CAP.bit_length():       # q ** n >= max(q, 2 ** n)
        raise SchemeError(f"hamming({n},{q}) has more vertices than the cap {SIZE_CAP}")
    size = q ** n
    if size > SIZE_CAP:
        raise SchemeError(f"hamming({n},{q}) has {size} vertices > cap {SIZE_CAP}")
    weights = q ** np.arange(n)

    @cache
    def digits():
        return (np.arange(size)[:, None] // weights) % q

    if q == 2:
        @cache
        def popcounts():
            table = np.zeros(size, dtype=CLASS_DTYPE)
            for i in range(n):
                table[1 << i:2 << i] = table[:1 << i] + 1
            return table

        def rows(xs):
            out = np.empty((len(xs), size), dtype=CLASS_DTYPE)
            ys = np.arange(size, dtype=np.uint16)
            step = max(1, (_CHUNK // 64) // size)
            for lo in range(0, len(xs), step):
                block = np.asarray(xs[lo:lo + step], dtype=np.uint16)[:, None] ^ ys
                np.take(popcounts(), block, out=out[lo:lo + step], mode="clip")
            return out

        def translation(y, o):
            return np.arange(size) ^ (y ^ o)
    else:
        def rows(xs):
            out = np.zeros((len(xs), size), dtype=CLASS_DTYPE)
            for col in digits().T:   # per coordinate: no (len(xs), N, n) array
                out += col[xs, None] != col[None, :]
            return out

        def translation(y, o):
            words = digits()
            return ((words - words[y] + words[o]) % q) @ weights

    return _family_space("hamming", size, [(n - i) * (q - 1) for i in range(n)],
                         range(1, n + 1), rows, laplacian_class,
                         lambda: tuple(map(tuple, digits())), translation)


def johnson(n: int, w: int, laplacian_class: int = 1) -> Space:
    """Johnson scheme J(n, w): w-subsets of {1..n} in colex order.

    Pair class i means the subsets share w - i elements.  The isometry
    taking y to o swaps y - o with o - y, elementwise in ascending order,
    on the ground set.  The subsets and their tables are built on the first
    vertex-level read.
    """
    if not 1 <= w <= n // 2:
        raise SchemeError("johnson requires 1 <= w <= n/2")
    if n > SIZE_CAP or w > SIZE_CAP.bit_length():       # comb(n, w) >= max(n, 2 ** w)
        raise SchemeError(f"johnson({n},{w}) has more vertices than the cap {SIZE_CAP}")
    size = math.comb(n, w)
    if size > SIZE_CAP:
        raise SchemeError(f"johnson({n},{w}) has {size} vertices > cap {SIZE_CAP}")

    @cache
    def tables():
        # colex order compares the largest elements first; vertex v has colex rank v
        subsets = sorted(combinations(range(1, n + 1), w), key=lambda s: s[::-1])
        masks = np.zeros((size, n), dtype=CLASS_DTYPE)
        np.put_along_axis(masks, np.array(subsets) - 1, 1, axis=1)
        # colex rank: the a-th smallest element, at 0-based position e, adds comb(e, a)
        binom = np.array([[math.comb(e, a) for a in range(w + 1)] for e in range(n)])
        return subsets, masks, binom

    def rows(xs):
        masks = tables()[1]
        out = masks[xs] @ masks.T               # common elements, at most w
        return np.subtract(w, out, out=out)

    def translation(y, o):
        _, masks, binom = tables()
        sigma = np.arange(n)                    # an involution of the ground set
        src = np.flatnonzero(masks[y] > masks[o])
        dst = np.flatnonzero(masks[o] > masks[y])
        sigma[src], sigma[dst] = dst, src
        mapped = masks[:, sigma]
        return (binom[np.arange(n), mapped.cumsum(axis=1)] * mapped).sum(axis=1)

    return _family_space("johnson", size, [(w - i) * (n - w - i) for i in range(w)],
                         [i * i for i in range(1, w + 1)], rows, laplacian_class,
                         lambda: tuple(tables()[0]), translation)


def cycle(n: int, laplacian_class: int = 1) -> Space:
    """Cycle graph C_n as a scheme; the pair class is circular distance,
    and the isometry taking y to o is the rotation by o - y."""
    if n < 3:
        raise SchemeError("cycle requires n >= 3")
    if n > SIZE_CAP:
        raise SchemeError(f"cycle({n}) has {n} vertices > cap {SIZE_CAP}")
    idx = np.arange(n)
    vertex = idx.astype(CLASS_DTYPE)

    def rows(xs):
        diff = np.abs(vertex[xs, None] - vertex)
        return np.minimum(diff, n - diff, out=diff)

    d = n // 2
    return _family_space("cycle", n, [2] + [1] * (d - 1), [1] * (d - 1) + [2 - n % 2],
                         rows, laplacian_class, None, lambda y, o: (idx - y + o) % n)


_FAMILIES = {
    "hamming": (hamming, ("n", "q")),
    "johnson": (johnson, ("n", "w")),
    "cycle": (cycle, ("n",)),
}


def build_named_space(spec: str, laplacian_class: int = 1) -> Space:
    """Build a space from a spec string.

    Accepts ``hamming:n=<n>,q=<q>``, ``johnson:n=<n>,w=<w>``,
    ``cycle:n=<N>`` and ``file:<path>``.  Each of a family's parameters
    appears exactly once; ``_FAMILIES`` names them.
    """
    if spec.startswith("file:"):
        return load_space(spec[5:], laplacian_class=laplacian_class)
    m = re.fullmatch(r"(\w+):([\w=,]+)", spec)
    if not m:
        raise SchemeError(f"cannot parse space spec {spec!r}")
    family, args = m.group(1), m.group(2)
    if family not in _FAMILIES:
        raise SchemeError(f"unknown space family {family!r}")
    build, names = _FAMILIES[family]
    kv = {}
    for part in args.split(","):
        key, _, val = part.partition("=")
        if key not in names or key in kv or not val.lstrip("-").isdigit():
            raise SchemeError(f"bad parameter {part!r} in spec {spec!r}")
        kv[key] = int(val)
    missing = [name for name in names if name not in kv]
    if missing:
        raise SchemeError(f"spec {spec!r} missing parameter {missing[0]!r}")
    return build(*(kv[name] for name in names), laplacian_class=laplacian_class)


# ---------------------------------------------------------------------------
# file format


# a line may be blank when its first byte is an ASCII space or non-ASCII, the
# lead of a UTF-8 character that may be Unicode space; it is decoded to check
_SPACE = np.array([c > 127 or chr(c).isspace() for c in range(256)])
_DIGITS = 18             # longest token read by the scan: 10^18 < 2^63


class Records:
    """The records of a data file, for all four loaders.

    The file is read once, as UTF-8 text with universal newlines, and kept
    as its UTF-8 bytes, in one array; a leading byte-order mark is dropped.
    Lines end at "\\n" alone (``str.splitlines`` would also split at form
    feeds and other separators, which would shift line numbers).  A record
    is a line that is neither blank (empty or Unicode whitespace) nor a
    comment, a line whose first character is '#'.  Records are kept as
    arrays of line bounds and line numbers; a record's text is sliced from
    the file only when a header, an error message or ``ints`` needs it.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                # one whole-file decode: exc.object is the file, exc.start
                # its byte offset; lines end at \n, \r\n or \r
                head = exc.object[:exc.start]
                line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                raise SchemeError(f"{path}:{line}: not UTF-8 text") from None
        if text.startswith("\ufeff"):
            text = text[1:]
        self._codes = codes = np.frombuffer(text.encode(), np.uint8)
        del text
        breaks = np.flatnonzero(codes == 10)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.append(breaks, len(codes))
        lines = np.flatnonzero(ends > starts)
        first = codes[starts[lines]]
        maybe_blank = _SPACE[first]
        maybe_blank[maybe_blank] = [self._text(starts[i], ends[i]).isspace()
                                    for i in lines[maybe_blank]]
        lines = lines[(first != 35) & ~maybe_blank]
        self._starts, self._ends, self._lineno = starts[lines], ends[lines], lines + 1

    def _text(self, start: int, end: int) -> str:
        return self._codes[start:end].tobytes().decode()

    def __len__(self) -> int:
        return len(self._lineno)

    def line(self, index: int) -> str:
        """The text of record ``index``."""
        return self._text(self._starts[index], self._ends[index])

    @property
    def lines(self) -> list[str]:
        """The text of every record."""
        return [self.line(i) for i in range(len(self))]

    def error(self, index: int, message: str) -> SchemeError:
        """A ``PATH:LINE: message`` error for record ``index``."""
        return SchemeError(f"{self.path}:{self._lineno[index]}: {message}")

    def int_at(self, index: int, text: str) -> int:
        """Token ``text`` of record ``index`` as an integer."""
        try:
            return int(np.int64(text))
        except (ValueError, OverflowError):
            raise self.error(
                index, f"{text!r} is not an integer in the 64-bit range") from None

    def ints(self, index: int, keyword: str | None, fields: str) -> list[int]:
        """Record ``index`` as ``keyword`` (if any) and one integer per name
        in ``fields``; bracketed names are optional."""
        tok = self.line(index).split()
        values = tok[1:] if keyword else tok
        most = len(fields.split())
        least = most - fields.count("[")
        if (keyword and tok[0] != keyword) or not least <= len(values) <= most:
            form = f"{keyword} {fields}" if keyword else fields
            raise self.error(index, f"expected '{form}', found '{' '.join(tok)}'")
        return [self.int_at(index, text) for text in values]

    def equals(self, index, text: str) -> np.ndarray:
        """Whether each of the records ``index`` is exactly ASCII ``text``."""
        starts = self._starts[index]
        same = self._ends[index] - starts == len(text)
        for j, char in enumerate(text):
            same &= self._codes[np.minimum(starts + j, len(self._codes) - 1)] == ord(char)
        return same

    def table(self, keyword: str | None, fields: str, start: int = 0,
              stop: int | None = None, missing: int = 0) -> np.ndarray:
        """``take`` of records ``start:stop``."""
        return self.take(np.arange(len(self))[start:stop], keyword, fields, missing)

    def take(self, index, keyword: str | None, fields: str,
             missing: int = 0) -> np.ndarray:
        """``ints`` of the records ``index`` (increasing) as one (rows,
        fields) array; an optional field a record leaves out reads
        ``missing``.  A plain record (see ``_scan``) with an allowed number
        of values is read by the scan.  Every other record goes through
        ``ints``, in order, so the first bad line is the one named.
        """
        most = len(fields.split())
        least = most - fields.count("[")
        values, counts, plain = self._scan(index, keyword)
        plain &= (least <= counts) & (counts <= most)
        if plain.all() and (counts == most).all():
            return values.reshape(len(index), most)
        out = np.full((len(index), most), missing, dtype=np.int64)
        own = np.repeat(plain, counts)
        rows = np.repeat(np.arange(len(index)), counts)
        cols = np.arange(len(values)) - np.repeat(np.cumsum(counts) - counts, counts)
        out[rows[own], cols[own]] = values[own]
        for i in np.flatnonzero(~plain):
            got = self.ints(index[i], keyword, fields)
            out[i, :len(got)] = got
        return out

    def _scan(self, index: np.ndarray, keyword: str | None):
        """(values, counts, plain) of the records ``index``: every run of
        ASCII digits in them as an integer, the number of runs in each
        record, and whether each record is plain.  A plain record is
        ``keyword`` and a space at its head (when there is a keyword), then
        only ASCII digits and spaces, in runs of at most 18 digits, so
        ``ints`` would read it as exactly its runs.  The records are scanned
        as one block: a view of the file when they are consecutive lines,
        else a copy of them gathered one after another.
        """
        rows = len(index)
        if not rows:
            return np.zeros(0, np.int64), np.zeros(0, np.intp), np.ones(0, bool)
        starts, ends = self._starts[index], self._ends[index]
        if self._lineno[index[-1]] - self._lineno[index[0]] == rows - 1:
            block = self._codes[starts[0]:ends[-1]]
            starts, ends = starts - starts[0], ends - starts[0]
        else:                               # each record with its "\n"
            span = self._codes[starts[0]:ends[-1] + 1]
            edges = np.zeros(len(span) + 2, np.int8)
            edges[starts - starts[0]] += 1
            edges[ends - starts[0] + 1] -= 1
            block = span[np.cumsum(edges[:len(span)], dtype=np.int8).view(bool)]
            after = np.cumsum(ends - starts + 1)
            starts, ends = after - (ends - starts + 1), after - 1
        padded = np.zeros(len(block) + 2, bool)     # a non-digit either side
        digit = padded[1:-1]
        np.less(block - 48, 10, out=digit)
        plain = np.ones(rows, bool)
        if keyword:
            plain = ends - starts > len(keyword)    # room for it and a space
            heads = starts[plain]
            found = np.ones(len(heads), bool)
            for j, char in enumerate(keyword + " "):
                found &= np.take(block, heads + j) == ord(char)
            plain[plain] = found
        # every byte is a digit, a space, a newline or a keyword letter at a
        # plain head; else find the records that hold the others
        others = len(block) - np.count_nonzero(digit) - np.count_nonzero(block == 32)
        others -= np.count_nonzero(block == 10) + len(keyword or "") * np.count_nonzero(plain)
        if others:
            ok = digit | (block == 32) | (block == 10)
            if keyword:
                ok[starts[plain][:, None] + np.arange(len(keyword))] = True
            plain[np.searchsorted(starts, np.flatnonzero(~ok), "right") - 1] = False
        bounds = np.flatnonzero(padded[1:] != padded[:-1])
        first, last = bounds[::2], bounds[1::2]
        length = last - first
        longest = int(length.max(initial=0))
        if longest > _DIGITS:
            plain[np.searchsorted(starts, first[length > _DIGITS], "right") - 1] = False
        # runs per record: width each when run k * width and run
        # k * width + width - 1 both lie in record k, else counted
        width = len(first) // rows
        if width * rows == len(first) and (
                not width or ((first[::width] >= starts).all()
                              and (last[width - 1::width] <= ends).all())):
            counts = np.full(rows, width, np.intp)
        else:
            counts = np.diff(np.searchsorted(first, starts), append=len(first))
        # Horner over the runs right-aligned at ``last``: a digit is padded
        # with 0 before the block, and masked before the run's first digit
        top = min(longest, _DIGITS)
        digits = np.zeros(top + len(block), np.uint8)
        np.multiply(block - 48, digit, out=digits[top:], casting="unsafe")
        values = np.zeros(len(first), np.int64)
        digit_at = np.empty(len(first), np.uint8)
        for j in range(top):
            np.take(digits, last + j, out=digit_at)
            digit_at *= length >= top - j
            values *= 10
            values += digit_at
        return values, counts, plain


def load_space(path: str, laplacian_class: int = 1) -> Space:
    """Load a space file.

    ``scheme <N> <m>`` followed by ``rel <u> <v> <c>`` for every unordered
    pair, or ``graph <N>`` followed by ``edge <u> <v>`` lines, read by
    ``_read_space`` and finished by ``_finish_space``: a scheme file is
    validated against the scheme axioms on load.  Every error names the file.
    """
    kind, m, classes = _read_space(path)    # its record lines die before validation
    try:
        return _finish_space(kind, classes, m, laplacian_class)
    except SchemeError as exc:
        raise SchemeError(f"{path}: {exc}") from None


def _read_space(path: str) -> tuple[str, int, np.ndarray]:
    """(kind, m, classes) of a space file; an unlisted scheme pair is an error."""
    rec = Records(path)
    if not len(rec):
        raise SchemeError(f"{path}: empty space file")
    kind = rec.line(0).split()[0]
    if kind not in ("scheme", "graph"):
        raise rec.error(0, f"unknown header {kind!r}")
    if kind == "scheme":
        n, m = rec.table("scheme", "N m", 0, 1)[0].tolist()
    else:
        (n,) = rec.table("graph", "N", 0, 1)[0].tolist()
        m = 2                               # equal, adjacent, other
    if not 1 <= n <= SIZE_CAP:
        raise rec.error(0, f"N = {n} is outside 1..{SIZE_CAP}")
    if kind == "scheme" and not 1 <= m < n:
        raise rec.error(0, f"m = {m} is outside 1..N-1")
    if kind == "scheme":
        u, v, c = rec.table("rel", "u v c", 1).T
    else:
        u, v = rec.table("edge", "u v", 1).T
        c = 1
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (lo == hi) | (c < 1) | (c > m)
    if bad.any():
        i = 1 + int(np.argmax(bad))
        raise rec.error(i, f"'{' '.join(rec.line(i).split())}' is a loop or out of range")
    classes = np.full((n, n), -1 if kind == "scheme" else 2, dtype=CLASS_DTYPE)
    np.fill_diagonal(classes, 0)
    classes[lo, hi] = c                 # a pair listed twice keeps one class,
    classes[hi, lo] = c                 # the same in both triangles
    if classes.min() < 0:               # no N x N mask when every pair is listed
        u, v = np.argwhere(classes < 0)[0]
        raise SchemeError(f"{path}: pair ({u},{v}) has no classification")
    return kind, m, classes


def save_space(space: Space, path: str) -> None:
    """Write a space in the scheme (or graph) file format."""
    n, classes = space.n_vertices, space.classes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if space.is_scheme:
            fh.write(f"scheme {n} {space.n_classes}\n")
            for u in range(n):      # row by row: no N^2/2 index arrays at once
                fh.writelines(f"rel {u} {v} {c}\n" for v, c in
                              enumerate(classes[u, u + 1:].tolist(), u + 1))
        else:
            fh.write(f"graph {n}\n")
            for u in range(n):
                fh.writelines(f"edge {u} {v}\n" for v in
                              (np.flatnonzero(classes[u, u + 1:] == 1) + u + 1).tolist())


# ---------------------------------------------------------------------------
# validation


def is_metric(b: np.ndarray) -> bool:
    """True when the relation-1 layer b[k, j] = p^k_{1j} (``_layer(space,
    1)``) says that the class of a pair is its distance in relation 1:
    p^k_{1j} = 0 for |k - j| > 1 and p^{j+1}_{1j} > 0 for j < m.  A whole
    (m+1)^3 table p is read at its layer p[:, 1, :].
    """
    if b.ndim == 3:
        b = b[:, 1, :]
    k, j = np.indices(b.shape)
    return not b[abs(k - j) > 1].any() and bool((b.diagonal(-1) > 0).all())


def validate_scheme(space: Space) -> ValidationReport:
    """Check the symmetric association scheme axioms exhaustively.

    p^k_ij is the space's own ``intersection_numbers``, the table that
    the quotient, the spectrum and the bounds read; it must equal, layer by
    layer, the p read off one pair (0, y) per class, and a class that does
    not occur must have p^k = 0.  A space that carries none (a graph, a
    hand-built ``Space``, a file being loaded) has its p read off those
    pairs, in one walk of row 0.  When that p is metric (``is_metric``), one
    layer of it is checked: for every pair (x, y), k = c(x, y), the
    relation-1 neighbours z of x step to c(z, y) in k-1..k+1, p^k_{1,k+1} up
    and p^k_{1,k-1} down, which is N^2 k_1 gathers.  This is enough.  By
    induction on c(x, y), a pair of class k >= 1 has a relation-1 neighbour
    of x in class k - 1 with y, and no neighbour of x is in a class below
    k - 1; with c(x, y) = 0 only for x = y and c symmetric, c is the graph
    distance in relation 1.  That graph then has intersection numbers c_k,
    a_k, b_k that do not depend on the pair, so it is distance-regular, and
    the distance classes of a distance-regular graph form a symmetric
    association scheme (Brouwer, Cohen and Neumaier, *Distance-Regular
    Graphs*, 1989, 4.1).
    Its p is the one read off row 0.  Other schemes, and any that fail the
    metric check, compare A_i A_j with p at every pair for all i <= j,
    which names the failures and their witness pairs.  On success the
    report carries that p, the space's own table when it has one.
    """
    classes = space.classes
    n, m = space.n_vertices, space.n_classes
    failures: list[str] = []

    if classes.min() < 0 or classes.max() > m:  # no N x N mask when all are in range
        x, y = np.argwhere((classes < 0) | (classes > m))[0]
        return ValidationReport(False, [f"pair ({x},{y}) in class {classes[x, y]}, "
                                        f"outside 0..{m}"])
    if (np.diag(classes) != 0).any():
        x = int(np.flatnonzero(np.diag(classes) != 0)[0])
        failures.append(f"diagonal vertex {x} not in class 0")
    zero = classes == 0
    np.fill_diagonal(zero, False)
    if zero.any():
        x, y = np.argwhere(zero)[0]
        failures.append(f"off-diagonal pair ({x},{y}) in class 0")
    del zero                                    # one N x N mask alive at a time
    if (classes != classes.T).any():
        x, y = np.argwhere(classes != classes.T)[0]
        failures.append(f"classification not symmetric at pair ({x},{y})")
    counts = _class_counts(classes, m)
    if (counts != counts[0]).any():
        x = int(np.argwhere((counts != counts[0]).any(axis=1))[0, 0])
        failures.append(
            f"valency of class "
            f"{int(np.flatnonzero(counts[x] != counts[0])[0])} not constant: "
            f"witness vertex {x}")
    if failures:
        return ValidationReport(False, failures)

    p = space.intersection_numbers
    if p is None:
        p = _intersection_numbers(classes.__getitem__, m)
    else:
        failures = _row0_mismatches(classes, p, m)
    if not failures and not (is_metric(p[:, 1, :]) and _metric_layer_holds(classes, p)):
        failures = _product_failures(classes, p)
    if not np.array_equal(space.valencies, counts[0]):
        failures.append(f"valencies {space.valencies.tolist()} differ from the "
                        f"class counts {counts[0].tolist()} of every vertex")
    if failures:
        return ValidationReport(False, failures)
    return ValidationReport(True, [], intersection_numbers=p)


def _row0_mismatches(classes: np.ndarray, p: np.ndarray, m: int) -> list[str]:
    """Where a carried p differs from the p read off row 0: the first entry
    of each differing layer, with its witness pair (0, y)."""
    if p.shape != (m + 1,) * 3:
        return [f"intersection numbers have shape {p.shape}, not {(m + 1,) * 3}"]
    failures, seen = [], np.zeros(m + 1, dtype=bool)
    for k, y, layer in _p_layers(classes.__getitem__, m):
        seen[k] = True
        if (layer != p[k]).any():
            i, j = np.argwhere(layer != p[k])[0]
            failures.append(f"p^{k}_{{{i},{j}}} is {p[k, i, j]}, but pair (0,{y}) "
                            f"gives {layer[i, j]}")
    for k in np.flatnonzero(~seen & p.reshape(m + 1, -1).any(axis=1)):
        failures.append(f"class {k} does not occur, but p^{k}_ij is not 0")
    return failures


def _neighbours(classes: np.ndarray, r: int) -> np.ndarray | None:
    """The (N, k) array whose row x lists the class-r partners of x in
    ascending order, or None when the vertices do not all have k of them."""
    n = len(classes)
    flat = np.flatnonzero(classes == r)         # row x's partners form one run
    table = flat[:len(flat) // n * n].reshape(n, -1)
    regular = table.size == len(flat) and (table // n == np.arange(n)[:, None]).all()
    return table % n if regular else None


def _metric_layer_holds(classes: np.ndarray, p: np.ndarray) -> bool:
    """True when #{z ~1 x : c(z, y) = j} = p^{c(x,y)}_{1j} for every pair
    (x, y) and every j, for a metric p.

    Every vertex needs k_1 = p^0_{11} relation-1 neighbours z.  With
    k = c(x, y), the steps c(z, y) - k lie in {-1, 0, 1}, p^k_{1,k+1} of them
    +1 and p^k_{1,k-1} of them -1, so p^k_{1k} are 0 as p^k_{1j} sums to k_1
    over j.  Rows x go in chunks of about _CHUNK / 8 steps.
    """
    n = classes.shape[0]
    b = p[:, 1, :]                              # b[k, j] = p^k_{1j}
    up, down = np.append(b.diagonal(1), 0), np.insert(b.diagonal(-1), 0, 0)
    nbrs = _neighbours(classes, 1)
    if nbrs is None or nbrs.shape[1] != b[0, 1]:
        return False
    step = max(1, (_CHUNK // 8) // nbrs.size)   # rows x per chunk
    for lo in range(0, n, step):
        k = classes[lo:lo + step]               # k = c(x, y) for the chunk's rows x
        steps = classes[nbrs[lo:lo + step]] - k[:, None, :]
        if ((abs(steps) > 1).any() or ((steps == 1).sum(axis=1) != up[k]).any()
                or ((steps == -1).sum(axis=1) != down[k]).any()):
            return False
    return True


def _product_failures(classes: np.ndarray, p: np.ndarray) -> list[str]:
    """Every (i, j), i <= j, at which rint(A_i A_j) differs from p, with the
    first pair that differs as witness."""
    m = p.shape[0] - 1
    adj = [(classes == i).astype(float) for i in range(m + 1)]
    failures = []
    for i in range(m + 1):
        for j in range(i, m + 1):
            bad = np.rint(adj[i] @ adj[j]) != p[:, i, j][classes]
            if bad.any():
                x, y = np.argwhere(bad)[0]
                k = classes[x, y]
                failures.append(
                    f"p^{k}_{{{i},{j}}} not constant: witness triple "
                    f"(i={i}, j={j}, k={k}) at pair ({x},{y})")
    return failures


# ---------------------------------------------------------------------------
# spectral algebra


def _check_origin(space: Space, origin: int) -> None:
    """The origin of every sphere and spectral route is a vertex, 0..N-1."""
    if not 0 <= origin < space.n_vertices:
        raise SchemeError(f"origin {origin} out of range")


def _sphere_set(space: Space, spheres) -> tuple[int, ...]:
    """A sphere set as its sorted distinct indices, each in 0..m and each a
    class that occurs: the one rule for both the quotient and the dense
    route."""
    spheres = tuple(sorted({int(s) for s in spheres}))
    if not spheres:
        raise ValueError("sphere set is empty")
    if spheres[0] < 0 or spheres[-1] > space.n_classes:
        raise ValueError("sphere index out of range")
    empty = [s for s in spheres if space.valencies[s] == 0]
    if empty:
        raise ValueError(f"sphere {empty[0]} is empty")
    return spheres


def quotient_matrix(space: Space, spheres) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised quotient Laplacian on a set of sphere indices.

    Row/column a of the raw quotient is  deg*delta_ab - p^a_{r,b}, read
    from ``_layer(space, r)``;
    conjugation by diag(sqrt(n_a)) makes it symmetric, which is asserted
    via the identity n_a p^a_{r,b} = n_b p^b_{r,a}.  Each coupling is then
    formed once, as -sqrt(p^a_{r,b} p^b_{r,a}), so the two triangles are
    equal bit for bit.  Returns the symmetric matrix and the sqrt-valency
    weights.
    """
    layer = _layer(space, space.laplacian_class)
    idx = np.array(_sphere_set(space, spheres))
    nval = space.valencies[idx]
    p_r = layer[np.ix_(idx, idx)]
    flow = nval[:, None] * p_r
    if (flow != flow.T).any():
        a, b = idx[np.argwhere(flow != flow.T)[0]]
        raise RuntimeError(
            f"valency-intersection symmetry fails at classes {a},{b}")
    root = np.sqrt(nval.astype(float))
    sym = 0.0 - np.sqrt(p_r * p_r.T.astype(float))
    np.fill_diagonal(sym, space.degree - np.diagonal(p_r))
    return sym, root


def _eigh(matrix: np.ndarray):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc


def _group_eigenvalues(w: np.ndarray, group_tol: float):
    """Group ascending eigenvalues into eigenspaces by the gap rule.

    A gap above ``group_tol`` separates two groups; a gap below 10x that
    tolerance is reported as ambiguous rather than silently merged or
    split.  Returns the start index of each group and its eigenvalue.
    """
    gaps = np.diff(w)
    ambiguous = (gaps > group_tol) & (gaps < 10 * group_tol)
    if ambiguous.any():
        i = int(np.flatnonzero(ambiguous)[0])
        raise RuntimeError(
            f"eigenvalue grouping ambiguous: gap {gaps[i]:.3e} between "
            f"{w[i]:.12g} and {w[i + 1]:.12g} is below 10x tolerance")
    starts = np.r_[0, np.flatnonzero(gaps > group_tol) + 1]
    eigenvalues = np.add.reduceat(w, starts) / np.diff(np.r_[starts, len(w)])
    near_int = np.abs(eigenvalues - np.rint(eigenvalues)) <= group_tol
    eigenvalues[near_int] = np.rint(eigenvalues[near_int])
    eigenvalues[0] = 0.0
    return starts, np.maximum(eigenvalues, 0.0)


def spectral_decomposition(space: Space, origin: int = 0,
                           tol: float = DEFAULT_TOL) -> SpectralData:
    """Eigenspaces, projectors, eigenmatrix and zonal table of a space.

    Schemes are decomposed in their Bose-Mesner algebra, from the quotient
    Laplacian on the m+1 spheres around the origin; explicit graphs by a
    dense eigensolve.  Eigenspaces are grouped by Laplacian eigenvalue; an
    inter-group gap below 10x the grouping tolerance is reported as
    ambiguous rather than silently merged or split.
    """
    _check_origin(space, origin)
    if space.is_scheme:
        return _scheme_spectrum(space, origin, tol)
    return _graph_spectrum(space, origin, tol)


def _scheme_spectrum(space: Space, origin: int, tol: float) -> SpectralData:
    """Spectral data from one eigensolve of the (m+1) x (m+1) quotient.

    The quotient is the Laplacian on sphere-constant functions around the
    origin, in the orthonormal basis 1_{S_i}/sqrt(k_i).  An eigenvalue
    group G of it spans E_G delta_o, so with u_G the origin row of its
    eigenvectors, m_G = N |u_G|^2 and z_G(i) = (U_G u_G)_i / (sqrt(k_i) |u_G|^2).
    """
    n, m = space.n_vertices, space.n_classes
    live = np.flatnonzero(space.valencies)      # classes that occur
    sym, root = quotient_matrix(space, live)
    w, u = _eigh(sym)
    starts, eigenvalues = _group_eigenvalues(w, tol * max(1.0, float(space.degree)))
    at_origin = np.add.reduceat(u[0] ** 2, starts)          # (E_G)_{oo} = m_G / N
    mult = n * at_origin
    multiplicities = np.rint(mult).astype(int)
    off = np.abs(mult - multiplicities).max()
    if off > tol * n or (multiplicities < 1).any() or multiplicities.sum() != n:
        raise RuntimeError(
            f"eigenspace multiplicities {' '.join(f'{x:.6g}' for x in mult)} are "
            f"not positive integers summing to N = {n} (largest distance to an "
            f"integer {off:.2g}, bound tol*N = {tol * n:.2g}); the intersection "
            "numbers are not those of a scheme")
    zonal = np.zeros((len(starts), m + 1))
    zonal[:, live] = (np.add.reduceat(u * u[0], starts, axis=1)
                      / (root[:, None] * at_origin)).T
    eigenmatrix = space.valencies[:, None] * zonal.T

    def components(w: np.ndarray) -> np.ndarray:
        # E_j = (m_j/N) sum_i z_j(i) A_i; (A_i w)_x from the rows of supp w,
        # in column blocks of about _CHUNK entries; a column block keeps each
        # cell's summation order, so the result does not depend on _CHUNK.
        # A stack of functions shares one support: each of its cells adds
        # the same nonzero terms in the same order as a lone call
        rows = w.reshape(-1, n)
        supp = np.flatnonzero(rows.any(axis=0))
        step = max(1, _CHUNK // max(1, len(rows) * len(supp)))
        sums = np.empty((len(rows), n, m + 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            width = (hi - lo) * (m + 1)
            # cell of (row b, column x, class c): b * width + (x - lo) * (m + 1) + c
            offsets = (m + 1) * np.arange(hi - lo) + width * np.arange(len(rows))[:, None]
            cells = space.classes[supp, lo:hi] + offsets[:, None, :]
            sums[:, lo:hi] = np.bincount(
                cells.ravel(), np.repeat(rows[:, supp], hi - lo, axis=1).ravel(),
                len(rows) * width).reshape(-1, hi - lo, m + 1)
        sums = sums.reshape(*w.shape[:-1], n, m + 1)
        return (multiplicities / n)[:, None] * (zonal @ np.swapaxes(sums, -1, -2))

    def build_projectors() -> np.ndarray:
        proj = zonal[:, space.classes]
        proj *= (multiplicities / n)[:, None, None]
        return proj

    return SpectralData(
        origin=origin,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        eigenmatrix=eigenmatrix,
        zonal=zonal,
        components=components,
        build_projectors=build_projectors,
    )


def _graph_spectrum(space: Space, origin: int, tol: float) -> SpectralData:
    """Spectral data of an explicit graph from a dense eigensolve.

    Only class 0 (equality) and the Laplacian's class r have eigenvalues,
    1 and degree - theta_j; the eigenmatrix rows of the other classes are NaN.
    """
    n, m = space.n_vertices, space.n_classes
    w, vecs = _eigh(space.laplacian())
    starts, eigenvalues = _group_eigenvalues(w, tol * max(1.0, float(space.degree)))
    ends = np.r_[starts[1:], n]
    multiplicities = ends - starts
    eigenmatrix = np.full((m + 1, len(starts)), np.nan)
    eigenmatrix[0], eigenmatrix[space.laplacian_class] = 1.0, space.degree - eigenvalues

    def components(f: np.ndarray) -> np.ndarray:
        coef = f @ vecs                 # (N,) or (B, N): gemv or gemm
        sums = np.add.reduceat(vecs * coef[..., None, :], starts, axis=-1)
        return np.swapaxes(sums, -1, -2)

    ring, sizes = space.rows([origin])[0], space.valencies
    cols = (n / multiplicities)[:, None] * components(np.eye(1, n, origin)[0])
    zonal = np.stack([np.bincount(ring, weights=col, minlength=m + 1)
                      for col in cols])
    zonal = np.divide(zonal, sizes, out=np.zeros_like(zonal), where=sizes > 0)
    return SpectralData(
        origin=origin,
        eigenvalues=eigenvalues,
        multiplicities=multiplicities,
        eigenmatrix=eigenmatrix,
        zonal=zonal,
        components=components,
        build_projectors=lambda: np.stack([vecs[:, a:b] @ vecs[:, a:b].T
                                           for a, b in zip(starts, ends)]),
    )


def spherical_projection(space: Space, spectral: SpectralData,
                         f: np.ndarray) -> np.ndarray:
    """Project f onto the sphere-constant functions around the origin.

    Replaces f by its average over each sphere; idempotent, self-adjoint,
    and commutes with every adjacency operator of the scheme.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n_vertices,):
        raise ValueError("function has wrong length")
    ring, sizes = space.rows([spectral.origin])[0], space.valencies
    sums = np.bincount(ring, weights=f, minlength=space.n_classes + 1)
    avg = np.divide(sums, sizes, out=np.zeros_like(sums), where=sizes > 0)
    return avg[ring]
