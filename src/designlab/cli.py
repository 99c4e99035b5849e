"""Command-line front end: designlab <command> ...

Exit status 0 on success, 1 on failed verification or invalid input (with a
machine-readable ``error: ...`` line), 2 on usage errors: a missing required
flag, a flag the action does not take, or an abbreviated one.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import designs, spaces, spectra, torus


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class Reporter:
    """Stable-ordered key/value (or tabular) output in text or csv."""

    def __init__(self, fmt: str):
        self.pair, self.sep = (",", ",") if fmt == "csv" else (" = ", "  ")

    def rows(self, pairs):
        for key, value in pairs:
            print(f"{key}{self.pair}{_fmt(value)}")

    def table(self, header, rows):
        for row in [header, *rows]:
            print(self.sep.join(_fmt(v) for v in row))


class _Parser(argparse.ArgumentParser):
    """Flags by full name only; subparsers default to their parent's class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _shared_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    if "tol" in names:
        parser.add_argument("--tol", type=float, default=spaces.DEFAULT_TOL)
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--threads", type=int, default=0,
                        help="checked to be >= 0, no other effect; BLAS threads come "
                        "from OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, set before "
                        "Python starts; scheme-level results and the Laplacian "
                        "do not depend on them")
    if "relation" in names:
        parser.add_argument("--relation", type=int, default=1,
                            help="relation class defining the Laplacian")
    if "origin" in names:
        parser.add_argument("--origin", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="designlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("space", help="inspect or validate a space")
    actions = cmd.add_subparsers(dest="action", required=True)
    for action in ("info", "validate"):
        p = actions.add_parser(action)
        p.add_argument("spec")
        _shared_flags(p, "relation")

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues and multiplicities")
    p.add_argument("spec")
    _shared_flags(p, "tol", "relation")

    p = sub.add_parser("subset-eig", help="Dirichlet eigenvalue of a subset")
    p.add_argument("spec")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ball", type=int)
    grp.add_argument("--spheres")
    grp.add_argument("--set", dest="set_file")
    _shared_flags(p, "tol", "relation", "origin")

    cmd = sub.add_parser("design", help="design verification, strength, search")
    actions = cmd.add_subparsers(dest="action", required=True)
    for action in ("verify", "strength", "search"):
        p = actions.add_parser(action)
        p.add_argument("spec")
        if action != "search":
            p.add_argument("--design", required=True)
        if action != "strength":
            p.add_argument("--t", type=float, required=True)
        if action == "search":
            p.add_argument("--max-size", type=int, default=8)
        _shared_flags(p, "tol", "relation")

    p = sub.add_parser("bound", help="evaluate the design lower bound")
    p.add_argument("spec")
    p.add_argument("--t", type=float, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ball", type=int)
    grp.add_argument("--auto", action="store_true")
    grp.add_argument("--set", dest="set_file")
    _shared_flags(p, "tol", "relation", "origin")

    p = sub.add_parser("cover", help="verify the covering chain for a design")
    p.add_argument("spec")
    p.add_argument("--design", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--ball", type=int, required=True)
    p.add_argument("--isometries")
    _shared_flags(p, "tol", "relation", "origin")

    cmd = sub.add_parser("torus", help="flat-torus covolume and packing bounds")
    actions = cmd.add_subparsers(dest="action", required=True)
    for action in ("density-bound", "covolume-bound"):
        p = actions.add_parser(action)
        p.add_argument("--dim", type=int, required=True)
        if action == "covolume-bound":
            p.add_argument("--shortest", type=float, required=True)
        _shared_flags(p)
    return top


def _load(args) -> spaces.Space:
    return spaces.build_named_space(args.spec, laplacian_class=args.relation)


def _spheres_arg(args, space) -> list[int]:
    if getattr(args, "ball", None) is not None:
        if args.ball < 0 or args.ball > space.n_classes:
            raise ValueError(f"ball radius out of range 0..{space.n_classes}")
        return list(range(args.ball + 1))
    try:
        return [int(s) for s in args.spheres.split(",")]
    except ValueError:
        raise ValueError(f"--spheres {args.spheres!r} is not a comma-separated "
                         "list of integers") from None


def _cmd_space(args, out: Reporter) -> int:
    space = _load(args)
    pairs = [
        ("kind", space.kind),
        ("vertices", space.n_vertices),
        ("classes", space.n_classes),
        ("laplacian_class", space.laplacian_class),
        ("degree", space.degree),
        ("valencies", " ".join(map(str, space.valencies))),
    ]
    if args.action == "info":
        out.rows(pairs)
        return 0
    # load_space validates a scheme file as it reads it
    failures = [] if space.kind == "scheme" else spaces.validate_scheme(space).failures
    out.rows(pairs + [("valid", not failures)])
    for failure in failures:
        print(f"error: {failure}")
    return 1 if failures else 0


def _cmd_spectrum(args, out: Reporter) -> int:
    space = _load(args)
    spec = spaces.spectral_decomposition(space, tol=args.tol)
    out.table(
        ["eigenvalue", "multiplicity"],
        [(spec.eigenvalues[j], int(spec.multiplicities[j]))
         for j in range(spec.n_eigenspaces)],
    )
    return 0


def _cmd_subset_eig(args, out: Reporter) -> int:
    space = _load(args)
    if args.set_file is not None:
        omega = spectra.load_subset(args.set_file, space.n_vertices)
        eig = spectra.subset_eigen(space, omega, args.tol)
    else:
        eig = spectra.sphere_union_eigen(space, args.origin,
                                         _spheres_arg(args, space), args.tol)
    out.rows([
        ("method", eig.method),
        ("volume", len(eig.omega)),
        ("lambda", eig.value),
    ])
    return 0


def _cmd_design(args, out: Reporter) -> int:
    space = _load(args)
    spec = spaces.spectral_decomposition(space, tol=args.tol)
    if args.action == "search":
        design, size = designs.min_design_search(space, spec, args.t,
                                                 args.max_size, args.tol)
        if design is None:
            out.rows([("found", False), ("max_size", args.max_size)])
            return 0
        out.rows([
            ("found", True),
            ("size", size),
            ("points", " ".join(map(str, design.points))),
        ])
        return 0
    design = designs.load_design(args.design, space.n_vertices)
    if args.action == "strength":
        rep = designs.design_strength(space, spec, design, args.tol)
        out.rows([("strength", rep.strength)])
        out.table(["eigenvalue", "residual"], rep.per_eigenspace)
        return 0
    ok, residuals = designs.verify_design(space, spec, design, args.t, args.tol)
    out.rows([("verified", ok)])
    if not ok:
        worst = designs.worst_residual(residuals, args.t, args.tol)
        print(f"error: design fails strength {args.t:g} "
              f"(max residual {worst:.3e})")
        return 1
    return 0


def _cmd_bound(args, out: Reporter) -> int:
    space = _load(args)
    spec = spaces.spectral_decomposition(space, args.origin, args.tol)
    if args.auto:
        reports, best = designs.design_bound_auto(space, spec, args.t, args.tol)
        rows = [(radius, r.lam, r.vol_omega, r.bound, r.vacuous)
                for radius, r in enumerate(reports)]
        if best is not None:
            rows.append(("best", best.lam, best.vol_omega, best.bound,
                         best.vacuous))
        out.table(["radius", "lambda", "vol_omega", "bound", "vacuous"], rows)
        return 0
    if args.set_file is not None:
        subset = spectra.load_subset(args.set_file, space.n_vertices)
        rep = designs.design_bound(space, spec, args.t, subset=subset, tol=args.tol)
    else:
        rep = designs.design_bound(space, spec, args.t,
                                   spheres=_spheres_arg(args, space),
                                   tol=args.tol)
    out.rows([
        ("omega", rep.omega),
        ("lambda", rep.lam),
        ("vol_omega", rep.vol_omega),
        ("vol_space", rep.vol_space),
        ("bound", rep.bound),
        ("vacuous", rep.vacuous),
    ])
    return 0


def _cmd_cover(args, out: Reporter) -> int:
    space = _load(args)
    spec = spaces.spectral_decomposition(space, args.origin, args.tol)
    design = designs.load_design(args.design, space.n_vertices)
    eig = spectra.sphere_union_eigen(space, args.origin, _spheres_arg(args, space),
                                     args.tol)
    action = None
    if args.isometries:
        action = designs.load_isometries(args.isometries, space, design,
                                         args.origin)
    rep = designs.verify_cover_chain(space, spec, design, args.t, eig, action,
                                     args.tol)
    out.rows([
        ("lambda", eig.value),
        ("chain_design_volume", rep.chain[0]),
        ("chain_union_volume", rep.chain[1]),
        ("chain_support_volume", rep.chain[2]),
        ("chain_spectral_volume", rep.chain[3]),
        ("dirichlet_lhs", rep.dirichlet_lhs),
        ("dirichlet_rhs", rep.dirichlet_rhs),
        ("max_design_residual", rep.max_design_residual),
    ])
    return 0


def _cmd_torus(args, out: Reporter) -> int:
    if args.action == "density-bound":
        if args.dim < 1:
            raise ValueError("need dim >= 1")
        bound = torus.torus_covolume_bound(args.dim, 1.0)
        out.rows([
            ("dim", args.dim),
            ("density_bound", bound.density_bound),
            ("density_bound_grid", bound.density_grid),
            ("rho_star", bound.rho_star),
            ("rho_grid", bound.rho_grid),
            ("log10_density_bound", bound.log10_density_bound),
        ])
        return 0
    bound = torus.torus_covolume_bound(args.dim, args.shortest)
    out.rows([
        ("dim", bound.dim),
        ("shortest", bound.shortest),
        ("t", bound.t),
        ("rho_star", bound.rho_star),
        ("rho_grid", bound.rho_grid),
        ("r_star", bound.r_star),
        ("covolume_bound", bound.covolume_bound),
        ("covolume_bound_grid", bound.covolume_grid),
        ("density_bound", bound.density_bound),
        ("log10_density_bound", bound.log10_density_bound),
    ])
    return 0


_DISPATCH = {
    "space": _cmd_space,
    "spectrum": _cmd_spectrum,
    "subset-eig": _cmd_subset_eig,
    "design": _cmd_design,
    "bound": _cmd_bound,
    "cover": _cmd_cover,
    "torus": _cmd_torus,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "tol" in args and not 0 < args.tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {args.tol}")
    if args.threads < 0:
        raise ValueError("threads must be >= 0")
    out = Reporter(args.format)
    return _DISPATCH[args.command](args, out)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
