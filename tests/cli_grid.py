"""Print the CLI's stdout and exit status over a fixed grid of invocations.

Diff its output at two commits to check that a change keeps every answer
the same:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python tests/cli_grid.py > grid.txt

The grid is 16 commands on each of 8 spaces (H(8,2), H(4,3), J(8,3),
C(20), C(8) and Petersen `graph` files, saved J(8,3) and H(4,2) files),
12 more `cover`, `design` and `torus` cases, each in text and csv: 280
invocations, run in-process through ``designlab.cli.main``.  Errors count:
an ``error:`` line is stdout like any other.  A usage error is recorded by
its exit status only, since argparse words its message on stderr.  The
input files live in a temporary directory whose path is masked as <tmp>.
Every invocation passes only flags of the action it calls.
"""

import contextlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy loads BLAS

import designlab as dl  # noqa: E402
from designlab.cli import main  # noqa: E402

from conftest import extended_hamming_code  # noqa: E402
from test_ball_sweep import petersen  # noqa: E402


def _inputs(tmp):
    """Space specs and the files the commands read."""
    tmp = Path(tmp)
    c8 = tmp / "c8.txt"
    c8.write_text("graph 8\n" + "".join(f"edge {v} {(v + 1) % 8}\n" for v in range(8)))
    petersen(tmp / "petersen.txt")
    specs = ["hamming:n=8,q=2", "hamming:n=4,q=3", "johnson:n=8,w=3", "cycle:n=20",
             f"file:{c8}", f"file:{tmp}/petersen.txt"]
    for name, space in [("j83", dl.johnson(8, 3)), ("h42", dl.hamming(4, 2))]:
        dl.save_space(space, str(tmp / f"{name}.txt"))
        specs.append(f"file:{tmp / name}.txt")
    subset = tmp / "subset.txt"
    subset.write_text("0\n1\n2\n")
    code = tmp / "code.txt"
    code.write_text("".join(f"{w}\n" for w in extended_hamming_code()))
    h82 = dl.hamming(8, 2)
    action = dl.translations_to_origin(h82, dl.load_design(str(code), 256))
    isometries = tmp / "iso.txt"
    isometries.write_text("".join("perm 256\n" + "".join(f"{x}\n" for x in perm)
                                  for perm in action.permutations))
    c8_design = tmp / "c8_design.txt"
    c8_design.write_text("0\n4\n")
    return specs, str(subset), str(code), str(isometries), str(c8_design)


def _commands(specs, subset, code, isometries, c8_design):
    for spec in specs:
        yield ["space", "info", spec]
        yield ["space", "validate", spec]
        yield ["space", "info", spec, "--relation", "2"]
        yield ["spectrum", spec]
        yield ["spectrum", spec, "--relation", "2"]
        yield ["subset-eig", spec, "--ball", "1"]
        yield ["subset-eig", spec, "--ball", "1", "--origin", "3"]
        yield ["subset-eig", spec, "--ball", "1", "--origin", "99"]
        yield ["subset-eig", spec, "--spheres", "0,2"]
        yield ["subset-eig", spec, "--spheres", "2,0,2", "--relation", "2"]
        yield ["subset-eig", spec, "--set", subset]
        yield ["bound", spec, "--t", "4", "--ball", "1"]
        yield ["bound", spec, "--t", "4", "--auto"]
        yield ["bound", spec, "--t", "4", "--auto", "--origin", "3"]
        yield ["bound", spec, "--t", "4", "--set", subset]
        yield ["bound", spec, "--t", "4", "--ball", "9"]
    h82, c8 = specs[0], specs[4]
    yield ["cover", h82, "--design", code, "--t", "8", "--ball", "1"]
    yield ["cover", h82, "--design", code, "--t", "8", "--ball", "1",
           "--isometries", isometries]
    yield ["cover", h82, "--design", code, "--t", "8", "--ball", "9"]
    yield ["cover", c8, "--design", c8_design, "--t", "2", "--ball", "1"]
    yield ["design", "verify", h82, "--design", code, "--t", "8"]
    yield ["design", "verify", h82, "--design", code, "--t", "9"]
    yield ["design", "strength", h82, "--design", code]
    yield ["design", "search", "cycle:n=4", "--t", "4", "--max-size", "4"]
    yield ["design", "search", "cycle:n=6", "--t", "100", "--max-size", "2"]
    yield ["torus", "density-bound", "--dim", "8"]
    yield ["torus", "density-bound", "--dim", "400"]
    yield ["torus", "covolume-bound", "--dim", "3", "--shortest", "1.0"]


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return out.getvalue(), status


def main_grid() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        commands = list(_commands(*_inputs(tmp)))
        for argv, fmt in itertools.product(commands, ["text", "csv"]):
            argv = argv + ["--format", fmt]
            out, status = _invoke(argv)
            print("$ designlab " + " ".join(argv).replace(tmp, "<tmp>"))
            print(out.replace(tmp, "<tmp>"), end="")
            print(f"[exit {status}]")
    return 0


if __name__ == "__main__":
    sys.exit(main_grid())
