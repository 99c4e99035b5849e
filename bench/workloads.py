"""The three workloads: their seeded inputs, timed items and output checks.

Each builder writes its input files into ``work`` from ``rng`` and returns
a list of ``Item``s.  ``Item.run`` is the timed call into designlab;
``Item.check`` compares its result with reference.py; ``Item.cross`` runs
once, after the first round, and compares two routes of the program.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref
from tracer import merge


class OperationFailed(Exception):
    """The operation crashed instead of giving an answer."""


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    reps: int = 1                          # executions per round
    cross: Callable[[object], None] | None = None


def _spec(family: str, p: dict) -> str:
    return f"{family}:" + ",".join(f"{k}={v}" for k, v in p.items())


# ---------------------------------------------------------------------------
# bound-ladder: build -> spectral_decomposition -> design_bound_auto, and torus

LADDER = (  # family, parameters, executions per round
    ("hamming", {"n": 8, "q": 2}, 4),
    ("hamming", {"n": 10, "q": 2}, 1),
    ("hamming", {"n": 6, "q": 3}, 2),
    ("johnson", {"n": 12, "w": 5}, 2),
    ("cycle", {"n": 128}, 1),
    ("cycle", {"n": 192}, 1),
)
TORUS_DIMS = list(range(1, 65))


def _t_range(family: str, p: dict) -> tuple[float, float]:
    """From below the first nonzero eigenvalue to the top one."""
    top = {"hamming": lambda: p["q"] * p["n"],
           "johnson": lambda: p["w"] * (p["n"] + 1 - p["w"]),
           "cycle": lambda: 4.0}[family]()
    return 0.05, float(top)


def bound_ladder(dl, rng, work: Path) -> list[Item]:
    plan = {"spaces": [], "torus": {"dims": TORUS_DIMS,
                                    "shortest": float(rng.uniform(0.5, 2.0))}}
    for family, p, reps in LADDER:
        lo, hi = _t_range(family, p)
        plan["spaces"].append({
            "family": family, "params": p, "reps": reps,
            "origin": int(rng.integers(ref.ball_sizes(family, **p)[-1])),
            "ts": sorted(float(t) for t in rng.uniform(lo, hi, size=3)),
        })
    path = work / "ladder.json"
    path.write_text(json.dumps(plan, indent=1))
    plan = json.loads(path.read_text())
    items = [_ladder_item(dl, **entry) for entry in plan["spaces"]]
    items.append(_torus_item(dl, **plan["torus"]))
    return items


def _ladder_item(dl, family, params, reps, origin, ts) -> Item:
    spec = _spec(family, params)
    b, c, a = ref.intersection_array(family, **params)
    diameter = len(b) - 1
    sizes = ref.ball_sizes(family, **params)
    n_vertices = sizes[-1]
    lams = [ref.ball_eigen(family, r, **params) for r in range(diameter + 1)]
    expected_spectrum = ref.spectrum(family, **params)

    def run():
        space = dl.build_named_space(spec)
        sd = dl.spectral_decomposition(space, origin)
        return space, sd, [dl.design_bound_auto(space, sd, t) for t in ts]

    def check(out):
        _, sd, sweeps = out
        checks.spectrum(spec, sd.eigenvalues, sd.multiplicities, expected_spectrum)
        for t, (reports, best) in zip(ts, sweeps):
            _check_sweep(f"{spec} t={t!r}", family, params, t, reports, best,
                         lams, sizes, n_vertices, a[1])

    def cross(out):
        space, _, sweeps = out
        for r in (1, 2):
            ball = np.flatnonzero(space.classes[origin] <= r)
            dense = dl.subset_eigen(space, ball)
            checks.close(f"{spec} ball {r}: dense vs quotient route",
                         dense.value, sweeps[0][0][r].lam)

    return Item(spec, run, check, reps, cross)


def _check_sweep(what, family, params, t, reports, best, lams, sizes,
                 n_vertices, a1) -> None:
    """Ball sweep against closed forms and against a known design's size."""
    limit = ref.design_size_bound(family, t, **params)
    checks.equal(f"{what}: radii", len(reports), len(lams))
    for r, rep in enumerate(reports):
        tag = f"{what} ball {r}"
        checks.close(f"{tag} lambda", rep.lam, lams[r])
        if r == 1:
            checks.close(f"{tag} lambda (closed form)", rep.lam,
                         ref.ball1_eigen(sizes[1] - 1, a1))
        if family == "cycle" and r < len(lams) - 1:
            checks.close(f"{tag} lambda (path)", rep.lam, ref.cycle_ball_eigen(r))
        checks.equal(f"{tag} volume", rep.vol_omega, sizes[r])
        checks.equal(f"{tag} vacuous", bool(rep.vacuous), not ref.below(lams[r], t))
        if not rep.vacuous:
            checks.close(f"{tag} bound", rep.bound,
                         (t - lams[r]) / t * n_vertices / sizes[r])
        checks.at_most(f"{tag} bound vs a design of size {limit}", rep.bound, limit)
    live = [rep.bound for rep in reports if not rep.vacuous]
    if live:
        checks.close(f"{what} best bound", best.bound, max(live))
    else:
        checks.equal(f"{what} best", best, None)


def _torus_item(dl, dims, shortest) -> Item:
    def run():
        return ([dl.lattice_density_bound(d) for d in dims],
                [dl.torus_covolume_bound(d, shortest) for d in dims])

    def check(out):
        density, bounds = out
        for d, dens, tb in zip(dims, density, bounds):
            tag = f"torus dim {d}"
            checks.close(f"{tag} rho_star", tb.rho_star, d / (d + 2))
            checks.close(f"{tag} rho_grid", tb.rho_grid, d / (d + 2), atol=1e-6)
            checks.close(f"{tag} covolume density vs density bound",
                         tb.density_bound, dens)
            if d / 2 - 1 in ref.BESSEL_ZEROS:
                checks.close(f"{tag} density bound", dens, ref.density_bound(d))
                checks.close(f"{tag} covolume bound", tb.covolume_bound,
                             ref.covolume_bound(d, shortest))
            if d in ref.BEST_LATTICE_DENSITY:
                checks.at_least(f"{tag} density bound vs best lattice",
                                dens, ref.BEST_LATTICE_DENSITY[d])

    def cross(_):
        for order, zero in ref.BESSEL_ZEROS.items():
            checks.close(f"Bessel zero j_{order}", dl.bessel_first_zero(order), zero)

    return Item(f"torus dims {dims[0]}..{dims[-1]}", run, check, 4, cross)


# ---------------------------------------------------------------------------
# certify-files: spaces, designs, subsets and isometries read from files

SCHEME_FILES = (  # name, family, parameters, executions per round
    ("cycle96", "cycle", {"n": 96}, 1),
    ("h72", "hamming", {"n": 7, "q": 2}, 3),
    ("j104", "johnson", {"n": 10, "w": 4}, 2),
    ("h53", "hamming", {"n": 5, "q": 3}, 2),
)


def _classes(family: str, p: dict) -> np.ndarray:
    return {"hamming": lambda: ref.hamming_classes(p["n"], p["q"]),
            "johnson": lambda: ref.johnson_classes(p["n"], p["w"]),
            "cycle": lambda: ref.cycle_classes(p["n"])}[family]()


def certify_files(dl, rng, work: Path) -> list[Item]:
    items = []
    for name, family, p, reps in SCHEME_FILES:
        cls = _classes(family, p)
        path = work / f"{name}.txt"
        ref.write_scheme(path, ref.relabel(cls, rng.permutation(len(cls))),
                         int(cls.max()))
        items.append(_scheme_item(dl, name, path, family, p, reps))
    items.append(_graph_item(dl, rng, work, "hypercube8", ref.hamming_classes(8, 2),
                             "hamming", {"n": 8, "q": 2}, (1, 2), 2))
    items.append(_graph_item(dl, rng, work, "petersen", ref.petersen_classes(),
                             "petersen", {}, (1,), 4))
    items.append(_cert_item(dl, rng, work, "code844", "hamming", {"n": 8, "q": 2},
                            ref.extended_hamming_844(), strength=8.0,
                            t_range=(6.5, 8.0), reps=2))
    items.append(_cert_item(dl, rng, work, "even9", "hamming", {"n": 9, "q": 2},
                            ref.even_weight(9), strength=18.0,
                            t_range=(16.5, 18.0), reps=1))
    # Fano is a 2-design and not a 3-design: strength is the k=3 eigenvalue 15
    items.append(_cert_item(dl, rng, work, "fano", "johnson", {"n": 7, "w": 3},
                            ref.FANO_LINES, strength=15.0,
                            t_range=(12.5, 15.0), reps=4))
    items.append(_search_item(dl, "cycle", {"n": 24}, 3.0, 1))
    items.append(_search_item(dl, "hamming", {"n": 4, "q": 2}, 6.0, 4))
    return items


def _scheme_item(dl, name, path, family, p, reps) -> Item:
    sizes = ref.ball_sizes(family, **p)
    spheres = [sizes[0]] + [b - a for a, b in zip(sizes, sizes[1:])]
    table = ref.p1_table(family, **p)

    def run():
        return dl.load_space(str(path))

    def check(space):
        checks.equal(f"{name}: vertices", space.n_vertices, sizes[-1])
        checks.equal(f"{name}: valencies", space.valencies.tolist(), spheres)
        checks.equal(f"{name}: p^k_(1j)", space.intersection_numbers[:, 1, :].tolist(),
                     table.tolist())

    return Item(f"load {name}", run, check, reps)


def _graph_item(dl, rng, work, name, dist, family, p, radii, reps) -> Item:
    """A distance-regular graph read as a plain graph file, with ball subsets."""
    n = len(dist)
    perm = rng.permutation(n)
    path = work / f"{name}.txt"
    ref.write_graph(path, ref.relabel(np.minimum(dist, 2), perm))
    centre = int(rng.integers(n))
    subset_paths = []
    for r in radii:
        ball = perm[np.flatnonzero(dist[centre] <= r)]
        subset_paths.append(work / f"{name}_ball{r}.txt")
        ref.write_ids(subset_paths[-1], rng.permutation(ball), f"# ball {r}")
    sizes = ref.ball_sizes(family, **p)
    lams = [ref.ball_eigen(family, r, **p) for r in radii]
    b, c, a = ref.intersection_array(family, **p)

    def run():
        space = dl.load_space(str(path))
        eigs = [dl.subset_eigen(space, dl.load_subset(str(sp))) for sp in subset_paths]
        return dl.spectral_decomposition(space), eigs

    def check(out):
        sd, eigs = out
        checks.spectrum(name, sd.eigenvalues, sd.multiplicities, ref.spectrum(family, **p))
        for r, lam, eig in zip(radii, lams, eigs):
            checks.equal(f"{name} ball {r}: route", eig.method, "dense")
            checks.equal(f"{name} ball {r}: volume", len(eig.omega), sizes[r])
            checks.close(f"{name} ball {r}: lambda", eig.value, lam)
            if r == 1:
                checks.close(f"{name} ball 1: lambda (closed form)", eig.value,
                             ref.ball1_eigen(b[0], a[1]))

    def cross(out):
        if family != "hamming":
            return
        space = dl.build_named_space(_spec(family, p))
        for r, eig in zip(radii, out[1]):
            quotient = dl.spherical_subset_eigen(space, 0, range(r + 1))
            checks.close(f"{name} ball {r}: dense vs quotient route",
                         eig.value, quotient.value)

    return Item(f"graph {name}", run, check, reps, cross)


def _cert_item(dl, rng, work, name, family, p, design, strength, t_range,
               reps) -> Item:
    """Strength, verification, isometries and cover chain for one design.

    File route: a relabelled scheme file with design and isometry files.
    Named route: the built-in space, the design moved by a seeded
    automorphism, and the built-in translations.
    """
    cls = _classes(family, p)
    n = len(cls)
    if family == "hamming":
        q = p["q"]
        words = ref.hamming_words(p["n"], q)
        old_ids = ref.word_ids(np.asarray(design), q)
        sigma, shift = rng.permutation(p["n"]), rng.integers(0, q, p["n"])
        named_ids = ref.word_ids((np.asarray(design)[:, sigma] + shift) % q, q)

        def move(y, o):                     # translation taking y to o
            return ref.word_ids((words - words[y] + words[o]) % q, q)
    else:
        sets = ref.johnson_sets(p["n"], p["w"])
        index = {s: i for i, s in enumerate(sets)}
        old_ids = np.array([index[tuple(b)] for b in design])
        relabel = dict(zip(range(1, p["n"] + 1), (rng.permutation(p["n"]) + 1).tolist()))
        named_ids = np.array([index[tuple(sorted(relabel[e] for e in b))]
                              for b in design])

        def move(y, o):                     # ground permutation taking set y to o
            ground = range(1, p["n"] + 1)
            src = sorted(sets[y]) + sorted(set(ground) - set(sets[y]))
            dst = sorted(sets[o]) + sorted(set(ground) - set(sets[o]))
            sigma = dict(zip(src, dst))
            return np.array([index[tuple(sorted(sigma[e] for e in s))] for s in sets])

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    new_ids = np.sort(perm[old_ids])
    isometries = [perm[move(inv[y], inv[0])[inv]] for y in new_ids]
    files = {key: work / f"{name}_{key}.txt"
             for key in ("space", "design", "isometries", "named_design")}
    ref.write_scheme(files["space"], ref.relabel(cls, perm), int(cls.max()))
    ref.write_ids(files["design"], rng.permutation(new_ids), "# design")
    ref.write_perms(files["isometries"], isometries)
    ref.write_ids(files["named_design"], rng.permutation(named_ids), "# design")

    t = float(rng.uniform(*t_range))
    b, _, a = ref.intersection_array(family, **p)
    lam1 = ref.ball1_eigen(b[0], a[1])
    union = ref.union_of_balls(cls, old_ids, 1)
    known_union = {"code844": 144, "even9": n}.get(name)
    spec = _spec(family, p)

    def run():
        space = dl.load_space(str(files["space"]))
        sd = dl.spectral_decomposition(space)
        des = dl.load_design(str(files["design"]), n)
        st = dl.design_strength(space, sd, des)
        ok, _ = dl.verify_design(space, sd, des, t)
        ok_above, _ = dl.verify_design(space, sd, des, strength + 0.5)
        action = dl.load_isometries(str(files["isometries"]), space, des)
        eig = dl.spherical_subset_eigen(space, 0, [0, 1])
        chain = dl.verify_cover_chain(space, sd, des, t, eig, action)

        named = dl.build_named_space(spec)
        named_sd = dl.spectral_decomposition(named)
        named_des = dl.load_design(str(files["named_design"]), n)
        named_action = dl.translations_to_origin(named, named_des)
        named_eig = dl.spherical_subset_eigen(named, 0, [0, 1])
        named_chain = dl.verify_cover_chain(named, named_sd, named_des, t,
                                            named_eig, named_action)
        return st, ok, ok_above, action, eig, chain, named_chain

    def check(out):
        st, ok, ok_above, action, eig, chain, named_chain = out
        checks.equal(f"{name}: strength", st.strength, strength)
        checks.equal(f"{name}: verifies at t={t!r}", ok, True)
        checks.equal(f"{name}: verifies at t={strength + 0.5!r}", ok_above, False)
        checks.equal(f"{name}: isometries validated", action.validated, True)
        checks.close(f"{name}: ball 1 lambda", eig.value, lam1)
        design_volume, union_volume, support, spectral_volume = chain.chain
        checks.equal(f"{name}: design volume", design_volume,
                     len(old_ids) * (1 + b[0]))
        checks.equal(f"{name}: union volume", union_volume, union)
        if known_union is not None:
            checks.equal(f"{name}: union volume (known)", union_volume, known_union)
        checks.close(f"{name}: spectral volume", spectral_volume, (t - lam1) / t * n)
        checks.at_most(f"{name}: support vs union", support, union_volume)
        checks.at_least(f"{name}: support vs spectral volume", support, spectral_volume)
        for got, want in zip(named_chain.chain, chain.chain):
            checks.close(f"{name}: named route chain", got, want)

    return Item(f"certify {name}", run, check, reps)


def _search_item(dl, family, p, t, reps) -> Item:
    spec = _spec(family, p)
    limit = ref.design_size_bound(family, t, **p)
    b, _, a = ref.intersection_array(family, **p)
    lams = [ref.ball_eigen(family, r, **p) for r in range(len(b))]
    sizes = ref.ball_sizes(family, **p)

    def run():
        space = dl.build_named_space(spec)
        sd = dl.spectral_decomposition(space)
        return dl.min_design_search(space, sd, t, 8), dl.design_bound_auto(space, sd, t)

    def check(out):
        (design, size), (reports, best) = out
        checks.equal(f"{spec} t={t}: minimum design size", size, 8)
        if family == "cycle":
            top = max(j for j in range(1, p["n"] // 2 + 1)
                      if ref.below(2 - 2 * math.cos(2 * math.pi * j / p["n"]), t))
            ok = ref.cycle_design_ok(design.points, p["n"], top)
        else:
            ok = ref.hamming_design_ok(ref.hamming_words(p["n"], p["q"])[design.points],
                                       math.ceil(t / p["q"]) - 1)
        checks.equal(f"{spec} t={t}: found set is a design", ok, True)
        _check_sweep(f"{spec} t={t}", family, p, t, reports, best, lams, sizes,
                     sizes[-1], a[1])
        checks.at_most(f"{spec} t={t}: best bound vs exhaustive minimum",
                       best.bound, size)
        checks.at_most(f"{spec} t={t}: known design", size, limit)

    return Item(f"search {spec} t={t:g}", run, check, reps)


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m designlab.cli` per request


def _rows(stdout: str) -> dict:
    return dict(line.split(",", 1) for line in stdout.splitlines() if "," in line)


def _table(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.splitlines()[1:] if line]


def cli_requests(rng, work: Path) -> list[tuple[str, list[str], Callable]]:
    """(name, argv, check(code, stdout, stderr)) for every request.

    The first seven, one per subcommand, must succeed; the last four are
    invalid input and must end in ``error: ...`` and exit status 1.
    """
    h42 = work / "h42.txt"
    ref.write_scheme(h42, ref.relabel(ref.hamming_classes(4, 2), rng.permutation(16)), 4)
    code = ref.extended_hamming_844()
    code = (code[:, rng.permutation(8)] + rng.integers(0, 2, 8)) % 2
    code_path = work / "code844.txt"
    ref.write_ids(code_path, rng.permutation(ref.word_ids(code, 2)), "# [8,4,4] code")
    bad_subset = work / "bad_subset.txt"
    bad_subset.write_text("0\n  # an indented comment\n1\n2\n")
    bad_graph = work / "bad_graph.txt"
    ref.write_graph(bad_graph, ref.relabel(ref.petersen_classes(), rng.permutation(10)))
    lines = bad_graph.read_text().splitlines(keepends=True)
    bad_graph.write_text("".join(lines[:3] + ["   # an indented comment\n"] + lines[3:]))
    bad_perm = work / "bad_perm.txt"
    bad_perm.write_text("perm\n" + "".join(f"{x}\n" for x in range(256)))

    h82 = "hamming:n=8,q=2"
    radius = int(rng.integers(1, 4))
    t_bound = float(rng.uniform(0.5, 16.0))
    t_cover = float(rng.uniform(6.5, 8.0))
    t_fail = float(rng.uniform(8.5, 10.0))
    dim = int(rng.choice(sorted(ref.BEST_LATTICE_DENSITY)))
    j8 = {"n": 8, "w": 3}
    h8 = {"n": 8, "q": 2}
    sizes = ref.ball_sizes("hamming", **h8)
    lam1 = ref.ball1_eigen(8, 0)

    def space_ok(code_, out, err):
        checks.cli_ok("space", code_, out, err)
        rows = _rows(out)
        checks.equal("space: fields", [rows.get(k) for k in
                                       ("kind", "vertices", "classes", "valencies", "valid")],
                     ["scheme", "16", "4", "1 4 6 4 1", "true"])

    def spectrum_ok(code_, out, err):
        checks.cli_ok("spectrum", code_, out, err)
        table = _table(out)
        checks.spectrum("spectrum J(8,3)", [float(r[0]) for r in table],
                        [int(r[1]) for r in table], ref.spectrum("johnson", **j8))

    def subset_ok(code_, out, err):
        checks.cli_ok("subset-eig", code_, out, err)
        rows = _rows(out)
        checks.equal("subset-eig: route", rows.get("method"), "quotient")
        checks.equal("subset-eig: volume", int(rows["volume"]), sizes[radius])
        checks.close(f"subset-eig ball {radius}", float(rows["lambda"]),
                     ref.ball_eigen("hamming", radius, **h8))

    def strength_ok(code_, out, err):
        checks.cli_ok("design strength", code_, out, err)
        checks.equal("design strength", float(_rows(out)["strength"]), 8.0)

    def bound_ok(code_, out, err):
        checks.cli_ok("bound", code_, out, err)
        limit = ref.design_size_bound("hamming", t_bound, **h8)
        rows = _table(out)
        for row in rows[:-1] if rows[-1][0] == "best" else rows:
            r = int(row[0])
            checks.close(f"bound ball {r} lambda", float(row[1]),
                         ref.ball_eigen("hamming", r, **h8))
            checks.at_most(f"bound ball {r} vs a design of size {limit}",
                           float(row[3]), limit)

    def cover_ok(code_, out, err):
        checks.cli_ok("cover", code_, out, err)
        rows = _rows(out)
        checks.close("cover lambda", float(rows["lambda"]), lam1)
        checks.equal("cover union volume", float(rows["chain_union_volume"]), 144.0)
        checks.close("cover spectral volume", float(rows["chain_spectral_volume"]),
                     (t_cover - lam1) / t_cover * 256)

    def torus_ok(code_, out, err):
        checks.cli_ok("torus", code_, out, err)
        rows = _rows(out)
        dens = float(rows["density_bound"])
        checks.at_least(f"torus dim {dim} vs best lattice", dens,
                        ref.BEST_LATTICE_DENSITY[dim])
        checks.close(f"torus dim {dim} rho_star", float(rows["rho_star"]),
                     dim / (dim + 2))
        if dim <= 3:
            checks.close(f"torus dim {dim} density", dens, ref.density_bound(dim))

    def error_ok(what, extra=None):
        def check(code_, out, err):
            checks.cli_error(what, code_, out, err)
            if extra:
                extra(out)
        return check

    def not_verified(out):
        checks.equal("design verify: verified", _rows(out).get("verified"), "false")

    csv = ["--format", "csv"]
    return [
        ("space", ["space", "validate", f"file:{h42}"] + csv, space_ok),
        ("spectrum", ["spectrum", "johnson:n=8,w=3"] + csv, spectrum_ok),
        ("subset-eig", ["subset-eig", h82, "--ball", str(radius)] + csv, subset_ok),
        ("design", ["design", "strength", h82, "--design", str(code_path)] + csv,
         strength_ok),
        ("bound", ["bound", h82, "--t", repr(t_bound), "--auto"] + csv, bound_ok),
        ("cover", ["cover", h82, "--design", str(code_path), "--t", repr(t_cover),
                   "--ball", "1"] + csv, cover_ok),
        ("torus", ["torus", "density-bound", "--dim", str(dim)] + csv, torus_ok),
        ("error-subset-comment",
         ["subset-eig", "hamming:n=4,q=2", "--set", str(bad_subset)] + csv,
         error_ok("indented comment in a subset file")),
        ("error-graph-comment", ["space", "info", f"file:{bad_graph}"] + csv,
         error_ok("indented comment in a graph file")),
        ("error-design-verify",
         ["design", "verify", h82, "--design", str(code_path), "--t", repr(t_fail)] + csv,
         error_ok("design that fails verification", not_verified)),
        ("error-perm-header",
         ["cover", h82, "--design", str(code_path), "--t", "8", "--ball", "1",
          "--isometries", str(bad_perm)] + csv,
         error_ok("isometry file whose perm header has no size")),
    ]


def cli_cold(rng, work: Path, env: dict, tracer_totals=None) -> list[Item]:
    """Each request is a fresh interpreter.  With ``tracer_totals`` the child
    runs traced_cli.py and its span totals are merged into that dict."""
    items = []
    for i, (name, argv, check) in enumerate(cli_requests(rng, work)):
        items.append(Item(f"cli {name}", _cli_runner(argv, work, env, tracer_totals, i),
                          lambda res, check=check: check(*res)))
    return items


def _cli_runner(argv, work, env, totals, i):
    if totals is None:
        cmd = [sys.executable, "-m", "designlab.cli"] + argv
    else:
        out = work / f"trace_{i}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
               str(out)] + argv

    def run():
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=120)
        if totals is not None:
            merge(totals, json.loads(out.read_text()))
        if checks.crashed(proc.stderr):
            raise OperationFailed(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout, proc.stderr

    return run
