"""The relation-r neighbour table that the Laplacian, the metric-scheme
check and the isometry edge check all read, and the Laplacian's independence
from the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import designlab as dl
from designlab import spaces
from test_ball_sweep import petersen

SRC = str(Path(__file__).resolve().parents[1] / "src")


def grid_spaces(tmp):
    """The spaces tests/cli_grid.py builds: its eight specs, the saved files
    among them, and the cycles its design searches run on."""
    c8 = tmp / "c8.txt"
    c8.write_text("graph 8\n" + "".join(f"edge {v} {(v + 1) % 8}\n" for v in range(8)))
    found = {"H(8,2)": dl.hamming(8, 2), "H(4,3)": dl.hamming(4, 3),
             "J(8,3)": dl.johnson(8, 3), "C(20)": dl.cycle(20), "C(4)": dl.cycle(4),
             "C(6)": dl.cycle(6), "C(8) file": dl.load_space(str(c8)),
             "Petersen file": petersen(tmp / "petersen.txt")}
    for name, space in [("J(8,3)", dl.johnson(8, 3)), ("H(4,2)", dl.hamming(4, 2))]:
        path = tmp / f"{name}.txt"
        dl.save_space(space, str(path))
        found[f"{name} file"] = dl.load_space(str(path))
    return found


def test_every_relation_of_the_grid_spaces(tmp_path):
    for name, space in grid_spaces(tmp_path).items():
        classes, n = space.classes, space.n_vertices
        for r in range(space.n_classes + 1):
            nbrs = spaces._neighbours(classes, r)
            assert nbrs.shape == (n, space.valencies[r]), (name, r)
            assert (np.diff(nbrs, axis=1) > 0).all(), (name, r)
            assert np.array_equal(nbrs, np.nonzero(classes == r)[1].reshape(n, -1))


@pytest.mark.parametrize("r", [1, 2])
def test_one_extra_partner_gives_none(r):
    classes = dl.hamming(4, 2).classes.copy()
    y = int(np.flatnonzero(classes[0] == 3)[0])
    classes[0, y] = r                   # vertex 0 alone gains a class-r partner
    assert spaces._neighbours(classes, r) is None
    # with vertex 1 one partner short, the total is N k again
    z = int(np.flatnonzero(classes[1] == r)[0])
    classes[1, z] = 3
    assert spaces._neighbours(classes, r) is None


def test_laplacian_refuses_a_relation_that_is_not_regular():
    # a hand-built space whose relation 1 has degrees 2, 1, 1, 0
    classes = np.array([[0, 1, 1, 2], [1, 0, 2, 2], [1, 2, 0, 2], [2, 2, 2, 0]])
    space = dl.Space(kind="graph", n_vertices=4, n_classes=2, classes=classes,
                     valencies=np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="relation class 1 is not regular"):
        dl.laplacian_apply(space, np.ones(4))


_APPLY = """
import sys
import numpy as np
import designlab as dl
for space in (dl.johnson(13, 6), dl.johnson(14, 5), dl.hamming(12, 2)):
    f = np.random.default_rng(1).standard_normal(space.n_vertices)
    sys.stdout.buffer.write(dl.laplacian_apply(space, f).tobytes())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_laplacian_does_not_depend_on_the_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
        outputs.append(subprocess.run([sys.executable, "-c", _APPLY], env=env,
                                      capture_output=True, check=True).stdout)
    assert len(outputs[0]) == 8 * (1716 + 2002 + 4096)
    assert outputs[0] == outputs[1]
