"""Isometry checks on spaces whose classes are not certified distances.

The relation-1 edge route of ``designs._validate_action`` is sound only when
the classes are relation-1 distances.  A hand-built ``Space`` can carry a
metric p with classes that break it, so it takes the pair-by-pair route;
the built-in families and validated files keep the edge route.
"""

import dataclasses

import numpy as np
import pytest

import designlab as dl
from designlab import designs


def hand_built(family, pairs):
    """``family`` rebuilt by the constructor with the classes of ``pairs``
    changed, keeping the family's p."""
    classes = family.classes.copy()
    for (x, y), c in pairs.items():
        classes[x, y] = classes[y, x] = c
    return dl.Space(kind="scheme", n_vertices=family.n_vertices,
                    n_classes=family.n_classes, classes=classes,
                    valencies=family.valencies,
                    intersection_numbers=family.intersection_numbers)


def write_action(path, perms):
    n = perms.shape[1]
    path.write_text("".join(f"perm {n}\n" + "".join(f"{v}\n" for v in perm)
                            for perm in perms))
    return str(path)


# H(3,2) with one extra relation-1 pair: relation 1 is no longer regular
EXTRA_EDGE = (dl.hamming(3, 2), {(0, 7): 1})
# C(8) with classes 2 and 3 swapped on the pairs (0, 2) and (0, 3)
SWAPPED = (dl.cycle(8), {(0, 2): 3, (0, 3): 2})


def test_identity_is_an_isometry_of_a_space_with_an_extra_edge(tmp_path):
    space = hand_built(*EXTRA_EDGE)
    design = dl.make_design([0])
    perms = np.arange(8)[None]
    assert designs._validate_action(space, design, 0, perms) is None
    action = dl.load_isometries(write_action(tmp_path / "iso.txt", perms),
                                space, design)
    assert action.validated


def test_rotation_is_not_an_isometry_of_a_space_with_swapped_classes(tmp_path):
    space = hand_built(*SWAPPED)
    design = dl.make_design([1])
    perms = ((np.arange(8) - 1) % 8)[None]
    assert not designs._pair_check(space.classes)(perms[0])
    assert designs._validate_action(space, design, 0, perms) == (
        0, "isometry 0 does not preserve relations")
    with pytest.raises(ValueError, match="isometry 0 does not preserve relations"):
        dl.load_isometries(write_action(tmp_path / "iso.txt", perms), space, design)


@pytest.mark.parametrize("family, pairs", [EXTRA_EDGE, SWAPPED],
                         ids=["extra-edge", "swapped"])
def test_a_replaced_copy_takes_the_pair_route(monkeypatch, family, pairs):
    classes = hand_built(family, pairs).classes
    space = dataclasses.replace(family, classes=classes)

    def boom(*args):
        raise AssertionError("edge route taken")
    monkeypatch.setattr(designs, "_edge_check", boom)
    perms = np.arange(family.n_vertices)[None]
    designs._validate_action(space, dl.make_design([0]), 0, perms)


def test_a_loaded_file_keeps_the_edge_route(tmp_path, monkeypatch):
    family = dl.cycle(8)
    path = tmp_path / "c8.txt"
    dl.save_space(family, str(path))

    def boom(*args):
        raise AssertionError("pair route taken")
    monkeypatch.setattr(designs, "_pair_check", boom)
    space = dl.load_space(str(path))
    design = dl.make_design([1, 6])
    perms = dl.translations_to_origin(family, design).permutations
    assert dl.load_isometries(write_action(tmp_path / "iso.txt", perms),
                              space, design).validated
