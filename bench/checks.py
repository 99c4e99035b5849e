"""Output checks.  Each raises CheckError with a message on a mismatch.

The reference values they compare against come from reference.py, never
from the program under test; selftest.py feeds each check a perturbed value
to show that it rejects it.
"""

from __future__ import annotations

import math

RTOL = 1e-9
ATOL = 1e-9


class CheckError(AssertionError):
    pass


def close(what: str, got, want, rtol: float = RTOL, atol: float = ATOL) -> None:
    got, want = float(got), float(want)
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def equal(what: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def at_most(what: str, got, limit, rtol: float = RTOL) -> None:
    got, limit = float(got), float(limit)
    if not got <= limit + rtol * max(1.0, abs(limit)):
        raise CheckError(f"{what}: {got!r} exceeds {limit!r}")


def at_least(what: str, got, floor, rtol: float = RTOL) -> None:
    got, floor = float(got), float(floor)
    if not got >= floor - rtol * max(1.0, abs(floor)):
        raise CheckError(f"{what}: {got!r} is below {floor!r}")


def spectrum(what: str, eigenvalues, multiplicities, expected) -> None:
    """Distinct eigenvalues and multiplicities against [(value, mult), ...]."""
    equal(f"{what}: number of eigenspaces", len(eigenvalues), len(expected))
    for j, ((val, mult), got, got_mult) in enumerate(
            zip(expected, eigenvalues, multiplicities)):
        close(f"{what}: eigenvalue {j}", got, val)
        equal(f"{what}: multiplicity of eigenvalue {j}", int(got_mult), mult)


def cli_error(what: str, code: int, stdout: str, stderr: str) -> None:
    """Invalid input must give exit 1, an ``error:`` line and no traceback."""
    if "Traceback" in stderr or "Traceback" in stdout:
        raise CheckError(f"{what}: traceback instead of an error line")
    equal(f"{what}: exit status", code, 1)
    if not any(line.startswith("error: ") for line in stdout.splitlines()):
        raise CheckError(f"{what}: no 'error: ...' line on stdout")


def cli_ok(what: str, code: int, stdout: str, stderr: str) -> None:
    if "Traceback" in stderr or "Traceback" in stdout:
        raise CheckError(f"{what}: traceback")
    equal(f"{what}: exit status", code, 0)


def crashed(stderr: str) -> bool:
    """A request crashed (rather than answered wrongly) when Python printed
    an uncaught traceback."""
    return "Traceback" in stderr
