"""Self-test of the benchmark's checks: each must accept the reference value
and reject a perturbed one, so that no check passes vacuously.

    python3 bench/selftest.py        # exit 0 when every check is live

run.py also calls ``run()`` before it measures anything.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks
import reference as ref

TRACEBACK = ('Traceback (most recent call last):\n  File "cli.py", line 1\n'
             "IndexError: list index out of range\n")


def _cases():
    """(description, check call with a good value, same call with a bad value)."""
    h8 = ref.spectrum("hamming", n=8, q=2)
    eig = [v for v, _ in h8]
    mult = [m for _, m in h8]
    off = list(eig)
    off[3] += 1e-6
    more = list(mult)
    more[2] += 1
    lam = ref.ball1_eigen(8, 0)
    p1 = ref.p1_table("johnson", n=10, w=4)
    p1_bad = p1.copy()
    p1_bad[2, 3] += 1
    code = ref.extended_hamming_844()
    ok_err = ("", "error: bad line\n", 1)
    yield ("eigenvalue off by 1e-6",
           lambda: checks.spectrum("H(8,2)", eig, mult, h8),
           lambda: checks.spectrum("H(8,2)", off, mult, h8))
    yield ("multiplicity off by one",
           lambda: checks.spectrum("H(8,2)", eig, mult, h8),
           lambda: checks.spectrum("H(8,2)", eig, more, h8))
    yield ("eigenspace missing",
           lambda: checks.spectrum("H(8,2)", eig, mult, h8),
           lambda: checks.spectrum("H(8,2)", eig[:-1], mult[:-1], h8))
    yield ("ball eigenvalue off by 1e-6",
           lambda: checks.close("ball", ref.ball_eigen("hamming", 1, n=8, q=2), lam),
           lambda: checks.close("ball", lam + 1e-6, lam))
    yield ("cycle ball eigenvalue off by 1e-6",
           lambda: checks.close("ball", ref.ball_eigen("cycle", 5, n=64),
                                ref.cycle_ball_eigen(5)),
           lambda: checks.close("ball", ref.cycle_ball_eigen(5) + 1e-6,
                                ref.cycle_ball_eigen(5)))
    yield ("bound above a known design size",
           lambda: checks.at_most("bound", 64 * math.sqrt(2) / 9, 16),
           lambda: checks.at_most("bound", 16 * (1 + 1e-6), 16))
    yield ("union volume one short",
           lambda: checks.equal("union", 144.0, 144),
           lambda: checks.equal("union", 143.0, 144))
    yield ("minimum design size 7",
           lambda: checks.equal("minimum", 8, 8),
           lambda: checks.equal("minimum", 7, 8))
    yield ("p^k_1j entry off by one",
           lambda: checks.equal("p1", p1.tolist(), ref.p1_table("johnson", n=10, w=4).tolist()),
           lambda: checks.equal("p1", p1_bad.tolist(), p1.tolist()))
    yield ("Bessel zero off by 1e-6",
           lambda: checks.close("j0", 2.404825557695773, ref.BESSEL_ZEROS[0.0]),
           lambda: checks.close("j0", 2.404825557695773 + 1e-6, ref.BESSEL_ZEROS[0.0]))
    yield ("density bound below E8",
           lambda: checks.at_least("E8", ref.density_bound(1), ref.BEST_LATTICE_DENSITY[1]),
           lambda: checks.at_least("E8", ref.BEST_LATTICE_DENSITY[8] - 1e-6,
                                   ref.BEST_LATTICE_DENSITY[8]))
    yield ("support below the spectral volume",
           lambda: checks.at_least("support", 144.0, 90.51),
           lambda: checks.at_least("support", 90.5, 90.51))
    yield ("error request with a traceback",
           lambda: checks.cli_error("perm", ok_err[2], ok_err[1], ok_err[0]),
           lambda: checks.cli_error("perm", 1, "error: x\n", TRACEBACK))
    yield ("error request that exits 0",
           lambda: checks.cli_error("perm", 1, "error: x\n", ""),
           lambda: checks.cli_error("perm", 0, "error: x\n", ""))
    yield ("error request without an error line",
           lambda: checks.cli_error("perm", 1, "error: x\n", ""),
           lambda: checks.cli_error("perm", 1, "verified = false\n", ""))
    yield ("request with a traceback",
           lambda: checks.cli_ok("spectrum", 0, "0.0,1\n", ""),
           lambda: checks.cli_ok("spectrum", 0, "0.0,1\n", TRACEBACK))
    yield ("[8,4,4] taken for a strength-4 array",
           lambda: checks.equal("OA", ref.hamming_design_ok(code, 3), True),
           lambda: checks.equal("OA", ref.hamming_design_ok(code, 4), True))
    yield ("code with a word dropped taken for a design",
           lambda: checks.equal("OA", ref.hamming_design_ok(code, 3), True),
           lambda: checks.equal("OA", ref.hamming_design_ok(code[1:], 3), True))
    yield ("7 points taken for a design of C(24) at t=3",
           lambda: checks.equal("C24", ref.cycle_design_ok(np.arange(0, 24, 3), 24, 7), True),
           lambda: checks.equal("C24", ref.cycle_design_ok(np.arange(0, 21, 3), 24, 7), True))
    yield ("dense and quotient routes 1e-6 apart",
           lambda: checks.close("routes", lam, ref.ball_eigen("hamming", 1, n=8, q=2)),
           lambda: checks.close("routes", lam, lam - 1e-6))


def run() -> list[str]:
    """Descriptions of the checks that are not live; empty when all are."""
    broken = []
    for what, good, bad in _cases():
        try:
            good()
        except checks.CheckError as exc:
            broken.append(f"{what}: rejects the reference value ({exc})")
            continue
        try:
            bad()
        except checks.CheckError:
            continue
        broken.append(f"{what}: accepts the perturbed value")
    if ref.design_size_bound("cycle", 3.0, n=24) != 8:
        broken.append("reference design size for C(24) at t=3 is not 8")
    if ref.union_of_balls(ref.hamming_classes(8, 2), ref.word_ids(
            ref.extended_hamming_844(), 2), 1) != 144:
        broken.append("reference union of [8,4,4] balls is not 144")
    return broken


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line)
    print(f"{len(list(_cases())) - len(problems)} of {len(list(_cases()))} checks live"
          if not problems else "self-test FAILED")
    sys.exit(1 if problems else 0)
