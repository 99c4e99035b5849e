"""The eigenmatrix of an explicit graph follows its Laplacian relation.

A `graph` file has classes 0 (equal), 1 (adjacent) and 2 (other).  Its
dense route knows the eigenvalues of A_r for the Laplacian's class r only:
row r of the eigenmatrix holds them, so that sum_j P[r, j] E_j = A_r, and
the other non-zero class's row is NaN.
"""

import numpy as np
import pytest

import designlab as dl
from test_ball_sweep import petersen


def c6(path):
    path.write_text("graph 6\n"
                    + "".join(f"edge {v} {(v + 1) % 6}\n" for v in range(6)))


@pytest.mark.parametrize("relation", [1, 2])
@pytest.mark.parametrize("write", [petersen, c6])
def test_row_of_the_laplacian_class_rebuilds_its_adjacency(tmp_path, write, relation):
    path = tmp_path / "graph.txt"
    write(path)
    space = dl.load_space(str(path), laplacian_class=relation)
    spec = dl.spectral_decomposition(space)
    rebuilt = np.einsum("j,jxy->xy", spec.eigenmatrix[relation], spec.projectors)
    assert np.abs(rebuilt - space.adjacency(relation)).max() <= 1e-9
    assert (spec.eigenmatrix[0] == 1.0).all()
    assert np.isnan(spec.eigenmatrix[3 - relation]).all()
