"""Built-in families against the vertex-level route, and the size of their
bound route.

A family builds p^k_ij from m+2 rows of its class matrix; ``_finish_space``
is the route that files take, from the whole N x N matrix, which
``validate_scheme`` certifies and reads p from.  Both finish through
``_finish_scheme`` and read connectivity off p, and they must give the same
space or the same error; that connectivity is checked against the components
of relation r on the N x N mask.
"""

import math
import tracemalloc

import numpy as np
import pytest

import designlab as dl
from designlab.spaces import _finish_space, component_labels

FAMILIES = (
    [(dl.hamming, (n, q)) for q in range(2, 17) for n in range(1, 9) if q ** n <= 256]
    + [(dl.johnson, (n, w)) for n in range(2, 25) for w in range(1, n // 2 + 1)
       if math.comb(n, w) <= 256]
    + [(dl.cycle, (n,)) for n in [*range(3, 41), 63, 64, 96, 127, 128]]
)


@pytest.mark.parametrize("make, args", FAMILIES,
                         ids=[f"{make.__name__}{args}" for make, args in FAMILIES])
def test_family_matches_dense_route(make, args):
    classes = make(*args).classes
    m = int(classes[0].max())
    for r in range(1, m + 1):
        try:
            dense = _finish_space(make.__name__, classes, m, r)
        except dl.SchemeError as exc:
            with pytest.raises(dl.SchemeError) as info:
                make(*args, laplacian_class=r)
            assert str(info.value) == str(exc)
            continue
        space = make(*args, laplacian_class=r)
        for name in ("valencies", "intersection_numbers"):
            new, old = getattr(space, name), getattr(dense, name)
            assert new.dtype == old.dtype and np.array_equal(new, old), (name, r)


@pytest.mark.parametrize("make, args", FAMILIES,
                         ids=[f"{make.__name__}{args}" for make, args in FAMILIES])
def test_family_connectivity_matches_vertex_components(make, args):
    # both routes read connectivity off p; the oracle counts components of
    # relation r on the N x N mask
    classes = make(*args).classes
    m = int(classes[0].max())
    for r in range(1, m + 1):
        parts = len(np.unique(component_labels(classes == r)))
        if parts == 1:
            make(*args, laplacian_class=r)
            _finish_space(make.__name__, classes, m, r)
            continue
        text = (f"relation class {r} is disconnected ({parts} components); "
                "pick another --relation")
        for build in (lambda: make(*args, laplacian_class=r),
                      lambda: _finish_space(make.__name__, classes, m, r)):
            with pytest.raises(dl.SchemeError) as info:
                build()
            assert str(info.value) == text, r


def test_bound_route_builds_no_class_matrix():
    # the 4096 x 4096 int16 class matrix alone is 32 MiB
    tracemalloc.start()
    try:
        space = dl.build_named_space("hamming:n=12,q=2")
        spec = dl.spectral_decomposition(space)
        for t in (2.5, 7.0, 23.0):
            dl.design_bound_auto(space, spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_classes_are_built_once_on_first_read():
    space = dl.hamming(6, 2)
    repr(space)
    assert callable(vars(space)["classes"])          # printing built nothing
    classes = space.classes
    assert space.classes is classes
    assert classes.shape == (64, 64) and (classes == classes.T).all()
