"""Every data file is kept as one array of its UTF-8 bytes: records, line
numbers and blank lines read the same as a plain-``str`` reading of the
file, whatever its characters, and a leading byte-order mark is dropped."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import designlab as dl
from designlab.spaces import Records

from test_scan import BASE, LOADERS, _summary

BOM = "\ufeff"


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


@pytest.mark.parametrize("text", [
    "graph 3\r\nedge 0 1\n",                                # ASCII
    "# caf\xe9\r\ngraph 3\n\xa0\nedge 0 1\n",                # Latin-1
    "# \u96ea\rgraph\u30003\n\u3000\nedge 0 1\n",            # BMP
    "# \U0001f600\ngraph 3\nedge 0 1 \U0001f600\n",          # astral
])
def test_codes_are_the_utf8_bytes_of_the_file(tmp_path, text):
    codes = Records(_write(tmp_path, text))._codes
    assert codes.dtype == np.uint8
    assert len(codes) == len(text.replace("\r\n", "\n").replace("\r", "\n").encode())


ALPHABET = ["0", "12", "rel", "edge", " ", "#", "\n", "\r\n", "\r", "\x85", "\xa0",
            "\u3000", "\x0c", "\x1c", "\u0663", "\xe9", "\U0001f600", BOM]


def _reference(text):
    """(record texts, line numbers) from ``str`` alone."""
    text = text.replace("\r\n", "\n").replace("\r", "\n").removeprefix(BOM)
    kept = [(line, number) for number, line in enumerate(text.split("\n"), 1)
            if line and not line.isspace() and not line.startswith("#")]
    return [line for line, _ in kept], [number for _, number in kept]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_records_match_a_str_reading(tmp_path, text):
    rec = Records(_write(tmp_path, text))
    assert (rec.lines, rec._lineno.tolist()) == _reference(text)


@pytest.mark.parametrize("space", ["\xa0", "\u3000", "\x85", " \u3000\xa0\t"])
def test_lines_of_unicode_space_are_blank(tmp_path, space):
    rec = Records(_write(tmp_path, f"graph 3\n{space}\n{space * 3}\nedge 0 1\n"))
    assert rec.lines == ["graph 3", "edge 0 1"]
    assert rec._lineno.tolist() == [1, 4]


def test_ideographic_space_separates_like_a_space(tmp_path):
    text = "graph 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n"
    plain = dl.load_space(_write(tmp_path, text, "plain.txt"))
    wide = dl.load_space(_write(tmp_path, text.replace(" ", "\u3000"), "wide.txt"))
    assert wide.classes.tolist() == plain.classes.tolist()


@pytest.mark.parametrize("fmt", sorted(BASE))
def test_a_byte_order_mark_is_dropped(tmp_path, fmt):
    text = "".join(" ".join(record) + "\n" for record in BASE[fmt])
    plain = _write(tmp_path, text, "plain.txt")
    bom = _write(tmp_path, BOM + text, "bom.txt")
    assert _summary(LOADERS[fmt](bom)) == _summary(LOADERS[fmt](plain))


@pytest.mark.parametrize("data", [b"\xef\xbb", b"\xef\xbb\n0\n", b"\xef\xbb\xbf\xff\n0\n"])
def test_a_truncated_byte_order_mark_is_not_utf8(tmp_path, data):
    path = tmp_path / "data.txt"
    path.write_bytes(data)
    with pytest.raises(dl.SchemeError, match=r"data\.txt:1: not UTF-8 text$"):
        Records(str(path))
