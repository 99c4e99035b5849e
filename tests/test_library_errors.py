"""Library input checks that name what is wrong: each raise, reached once.

Hand-built spaces, wrong-length functions and out-of-range arguments give
a ValueError (or a failing ValidationReport) with a message, never a
wrong answer or an IndexError.
"""

import dataclasses

import numpy as np
import pytest

import designlab as dl


def _edited(classes, pairs):
    """A copy of ``classes`` with the entries at ``pairs`` set."""
    classes = classes.copy()
    for (x, y), c in pairs.items():
        classes[x, y] = c
    return classes


@pytest.mark.parametrize("pairs, failure", [
    ({(2, 2): 1}, "diagonal vertex 2 not in class 0"),
    ({(0, 3): 0, (3, 0): 0}, "off-diagonal pair (0,3) in class 0"),
    ({(0, 2): 1}, "classification not symmetric at pair (0,2)"),
])
def test_validate_scheme_names_the_broken_axiom(pairs, failure):
    c6 = dl.cycle(6)
    space = dataclasses.replace(c6, classes=_edited(c6.classes, pairs))
    report = dl.validate_scheme(space)
    assert not report.valid
    assert report.failures[0] == failure


@pytest.mark.parametrize("kwargs", [
    {},
    {"subset": [0, 1], "spheres": [0, 1]},
])
def test_design_bound_takes_exactly_one_subset(kwargs):
    space = dl.hamming(3, 2)
    spec = dl.spectral_decomposition(space)
    with pytest.raises(ValueError, match="give exactly one of subset or spheres"):
        dl.design_bound(space, spec, 2.0, **kwargs)


def _action(space, points):
    return dl.translations_to_origin(space, dl.make_design(points))


def test_build_F_checks_the_eigenfunction_length():
    space = dl.cycle(8)
    eig = dl.subset_eigen(dl.cycle(6), [0, 1])
    with pytest.raises(ValueError, match="eigenfunction has wrong length"):
        dl.build_F(space, eig, _action(space, [0, 4]))


def test_build_F_checks_the_weights_length():
    space = dl.cycle(8)
    eig = dl.subset_eigen(space, [0, 1])
    with pytest.raises(ValueError, match="weights do not match"):
        dl.build_F(space, eig, _action(space, [0, 4]), weights=[1.0, 1.0, 1.0])


def test_laplacian_apply_checks_the_length():
    with pytest.raises(ValueError, match="function has wrong length"):
        dl.laplacian_apply(dl.cycle(8), np.ones(7))


def test_spherical_projection_checks_the_length():
    space = dl.cycle(8)
    spec = dl.spectral_decomposition(space)
    with pytest.raises(ValueError, match="function has wrong length"):
        dl.spherical_projection(space, spec, np.ones(9))


@pytest.mark.parametrize("omega", [[0, 8], [-1, 2]])
def test_subset_eigen_checks_the_vertices(omega):
    with pytest.raises(ValueError, match="omega contains out-of-range vertices"):
        dl.subset_eigen(dl.cycle(8), omega)


def test_ball_fundamental_tone_needs_a_dimension():
    with pytest.raises(ValueError, match="need dim >= 1 and radius > 0"):
        dl.ball_fundamental_tone(0, 1.0)


def test_lattice_density_bound_needs_a_dimension():
    with pytest.raises(ValueError, match="need dim >= 1"):
        dl.lattice_density_bound(0)


def test_translations_to_origin_checks_the_family_translation():
    # the identity fixes point 0, so the first bad isometry is point 4's
    space = dataclasses.replace(dl.cycle(8), translation=lambda y, o: np.arange(8))
    with pytest.raises(ValueError,
                       match="isometry 1 does not map point 4 to the origin"):
        _action(space, [0, 4])
