"""The carried relation-1 layer is a space's one certificate that its p holds.

A space carries B_1 = p[:, 1, :] as ``_layer1`` exactly when its p is known
to hold at every vertex pair: a built-in family forms it from its
intersection array, and ``load_space`` takes it from the p that its
validation checked.  Graph files, hand-built spaces and
``dataclasses.replace`` copies carry None, read every layer from p and take
the pair-by-pair isometry route.
"""

import dataclasses

import numpy as np
import pytest

import designlab as dl
from designlab import designs, spaces
from test_ball_sweep import petersen
from test_family_arrays import same_bits
from test_metric_routes import write_scheme


def renumbered_j84():
    swap = np.array([0, 2, 1, 3, 4])                  # classes 1 <-> 2
    return swap[dl.johnson(8, 4).classes]


FAMILIES = {"H(4,2)": lambda: dl.hamming(4, 2),
            "H(3,3)": lambda: dl.hamming(3, 3),
            "J(7,3)": lambda: dl.johnson(7, 3),
            "C(9)": lambda: dl.cycle(9),
            "C(10)": lambda: dl.cycle(10)}
FILES = {**{name: lambda make=make: make().classes for name, make in FAMILIES.items()},
         "J(8,4) renumbered": renumbered_j84}


def loaded(tmp_path, name):
    return dl.load_space(write_scheme(tmp_path / "space.txt", FILES[name]()))


@pytest.mark.parametrize("name", FILES)
def test_a_loaded_scheme_file_carries_its_validated_layer(tmp_path, name):
    space = loaded(tmp_path, name)
    p = space.intersection_numbers
    assert space._layer1 is not None
    assert same_bits(space._layer1, p[:, 1, :])
    assert np.shares_memory(space._layer1, p)
    assert spaces._layer(space, 1) is space._layer1
    assert spaces.is_metric(space._layer1) == (name in FAMILIES)


@pytest.mark.parametrize("name", FAMILIES)
def test_a_loaded_metric_file_carries_its_family_layer(tmp_path, name):
    assert same_bits(loaded(tmp_path, name)._layer1, FAMILIES[name]()._layer1)


@pytest.mark.parametrize("name", FILES)
def test_a_replaced_copy_carries_none_and_reads_the_same_quotients(tmp_path, name):
    space = loaded(tmp_path, name)
    copy = dataclasses.replace(space)
    assert space._layer1 is not None and copy._layer1 is None
    assert same_bits(spaces._layer(copy, 1), space._layer1)
    for radius in range(space.n_classes + 1):
        for got, want in zip(spaces.quotient_matrix(space, range(radius + 1)),
                             spaces.quotient_matrix(copy, range(radius + 1))):
            assert same_bits(got, want)


def test_a_graph_file_carries_none_and_its_scheme_file_the_layer(tmp_path):
    graph = petersen(tmp_path / "petersen.txt")
    assert graph.kind == "graph" and graph._layer1 is None
    scheme = dl.load_space(write_scheme(tmp_path / "scheme.txt", graph.classes))
    assert same_bits(scheme._layer1, np.array([[0, 3, 0], [1, 0, 2], [0, 1, 2]]))


@pytest.mark.parametrize("name", FAMILIES)
def test_a_loaded_metric_file_takes_the_edge_route_and_its_copy_the_pair_route(
        tmp_path, monkeypatch, name):
    space = loaded(tmp_path, name)
    design = dl.make_design([0, space.n_vertices - 1])
    perms = dl.translations_to_origin(FAMILIES[name](), design).permutations

    seen = []
    is_metric = designs.is_metric
    monkeypatch.setattr(designs, "is_metric",
                        lambda layer: seen.append(layer) or is_metric(layer))

    def boom(*args):
        raise AssertionError("the other isometry route was taken")
    with monkeypatch.context() as patch:
        patch.setattr(designs, "_pair_check", boom)
        assert designs._validate_action(space, design, 0, perms) is None
    assert len(seen) == 1 and seen[0] is space._layer1
    with monkeypatch.context() as patch:
        patch.setattr(designs, "_edge_check", boom)
        copy = dataclasses.replace(space)
        assert designs._validate_action(copy, design, 0, perms) is None
    assert len(seen) == 1


def test_space_has_no_certified_flag():
    private = {f.name for f in dataclasses.fields(dl.Space) if f.name.startswith("_")}
    assert private == {"_ball_sweeps", "_layer1"}
    assert not hasattr(dl.hamming(3, 2), "_certified")
