"""H(n,2) class rows and translations by XOR against the digit route.

For q = 2 ``hamming`` reads the class of (x, y) from a popcount table at
x ^ y and translates y to o by x -> x ^ y ^ o.  The digit route, kept for
q > 2, counts the digits in which two words differ and adds o - y to every
word mod q; it is written out here as the reference.
"""

import tracemalloc

import numpy as np
import pytest

import designlab as dl


def digit_words(n):
    return (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1


def digit_rows(n, xs):
    words = digit_words(n)
    return (words[xs, None, :] != words[None, :, :]).sum(axis=2)


def digit_translation(n, y, o):
    words = digit_words(n)
    return ((words - words[y] + words[o]) % 2) @ (1 << np.arange(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_xor_rows_and_translations_match_the_digit_route(n):
    space = dl.hamming(n, 2)
    size = 2 ** n
    rng = np.random.default_rng(n)
    # every row up to n = 10, sampled rows above
    xs = np.arange(size) if n <= 10 else np.sort(rng.choice(size, 64, replace=False))
    rows = space.rows(xs)
    assert rows.dtype == np.int16
    assert np.array_equal(rows, digit_rows(n, xs))
    pairs = [(0, 0), (size - 1, 0), (0, size - 1)] + [
        tuple(rng.integers(size, size=2)) for _ in range(8)]
    for y, o in pairs:
        perm = space.translation(y, o)
        assert perm[y] == o
        assert np.array_equal(perm, digit_translation(n, y, o))


def test_xor_class_matrix_matches_the_digit_route():
    space = dl.hamming(8, 2)
    assert space.classes.dtype == np.int16
    assert np.array_equal(space.classes, digit_rows(8, np.arange(256)))


def test_xor_class_matrix_at_the_cap_holds_no_large_temporary():
    # the 4096 x 4096 int16 output is 32 MiB; x ^ y over every pair in
    # int64 would add 128 MiB
    space = dl.hamming(12, 2)
    tracemalloc.start()
    try:
        space.classes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 32 * 2 ** 20
