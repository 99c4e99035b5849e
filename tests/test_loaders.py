"""The shared record reader behind the four file loaders."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import designlab as dl

LOADERS = {
    "space": dl.load_space,
    "design": lambda path: dl.load_design(path, n_vertices=4),
    "subset": dl.load_subset,
    "subset of 4": lambda path: dl.load_subset(path, n_vertices=4),
    "isometries": lambda path: dl.load_isometries(path, dl.cycle(4), dl.make_design([2])),
}


@pytest.mark.parametrize("loader, text, where, what", [
    # an indented '#' is a record, not a comment, in every format
    ("subset", "0\n  # an indented comment\n1\n", ":2:", "expected 'vertex', found '#"),
    ("space", "graph 4\nedge 0 1\n   # an indented comment\nedge 1 2\n", ":3:",
     "expected 'edge u v', found '#"),
    ("design", "# c\n0\n  # comment\n", ":3:", "'#' is not an integer"),
    # non-integer tokens
    ("subset", "# c\n0\nx\n", ":3:", "'x' is not an integer"),
    ("space", "scheme 2 1\nrel 0 one 1\n", ":2:", "'one' is not an integer"),
    ("design", "0 2.5\n", ":1:", "'2.5' is not an integer"),
    ("subset", "99999999999999999999\n", ":1:", "64-bit range"),
    # wrong token counts
    ("design", "0 1 2\n", ":1:", "expected 'vertex [weight]', found '0 1 2'"),
    ("subset", "3 4\n", ":1:", "expected 'vertex'"),
    ("space", "scheme 3\n", ":1:", "expected 'scheme N m'"),
    ("space", "graph 3\nedge 0 1 2\n", ":2:", "expected 'edge u v'"),
    ("space", "scheme 2 1\n\nrel 0 1\n", ":3:", "expected 'rel u v c'"),
    ("isometries", "perm 4\n2\n3 1\n0\n1\n", ":3:", "expected 'image'"),
    # header limits
    ("space", "graph 0\n", ":1:", "N = 0 is outside 1..4096"),
    ("space", "scheme 0 1\n", ":1:", "N = 0 is outside 1..4096"),
    ("space", "graph 100000\n", ":1:", "N = 100000 is outside 1..4096"),
    ("space", "scheme 3 100000\n", ":1:", "m = 100000 is outside 1..N-1"),
    ("space", "scheme 3 0\n", ":1:", "m = 0 is outside 1..N-1"),
    ("space", "# c\nlattice 3\n", ":2:", "unknown header 'lattice'"),
    # records out of range
    ("space", "graph 3\nedge 0 1\nedge 0 3\n", ":3:", "'edge 0 3' is a loop or out of range"),
    ("space", "scheme 2 1\nrel 1 1 1\n", ":2:", "'rel 1 1 1' is a loop or out of range"),
    ("space", "scheme 2 1\nrel 0 1 2\n", ":2:", "'rel 0 1 2' is a loop or out of range"),
    ("design", "0\n1 0\n", ":2:", "weights must be >= 1"),
    ("design", "0\n# c\n4\n", ":3:", "design point out of range"),
    ("design", "1\n2\n1 3\n", ":3:", "duplicate design points"),
    ("subset of 4", "0\n99\n", ":2:", "subset vertex out of range"),
    ("subset", "# c\n0\n-1\n", ":3:", "subset vertex out of range"),
    # isometry blocks that fail the action check: the line of their header
    ("isometries", "# c\nperm 4\n0\n0\n0\n0\n", ":2:", "isometry 0 is not a permutation"),
    ("isometries", "perm 4\n0\n1\n2\n3\n", ":1:",
     "isometry 0 does not map point 2 to the origin"),
    ("isometries", "perm 4\n1\n3\n0\n2\n", ":1:", "isometry 0 does not preserve relations"),
])
def test_malformed_record_names_the_line(tmp_path, loader, text, where, what):
    path = tmp_path / "data.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        LOADERS[loader](str(path))
    assert str(exc.value).startswith(f"{path}{where} ")
    assert what in str(exc.value)


def test_second_isometry_block_names_its_header(tmp_path):
    path = tmp_path / "perms.txt"
    path.write_text("perm 4\n2\n3\n0\n1\n# second block\nperm 4\n1\n0\n3\n2\n")
    with pytest.raises(ValueError) as exc:
        dl.load_isometries(str(path), dl.cycle(4), dl.make_design([2, 3]))
    assert str(exc.value) == f"{path}:7: isometry 1 does not map point 3 to the origin"


def test_pair_listed_twice_takes_its_last_class(tmp_path):
    h22 = dl.hamming(2, 2)
    path = tmp_path / "h22.txt"
    dl.save_space(h22, str(path))
    header, body = path.read_text().split("\n", 1)
    path.write_text(f"{header}\nrel 1 0 2\n{body}")    # (0,1) is class 1 further on
    assert (dl.load_space(str(path)).classes == h22.classes).all()


TOKENS = ["scheme", "graph", "rel", "edge", "perm", "#", "x", "-1", "0", "1", "2",
          "3", "4", "5000", "99999999999999999999"]
LINES = st.tuples(st.sampled_from(["", " ", "#"]),
                  st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINES.map("".join), max_size=12))
def test_loaders_raise_only_value_or_os_errors(tmp_path, lines):
    path = tmp_path / "fuzz.txt"
    path.write_text("\n".join(lines))
    for load in LOADERS.values():
        try:
            load(str(path))
        except (ValueError, OSError):
            pass


# tokens and separators that str.split and the 64-bit conversion treat in
# unusual ways: vertical tab, form feed and \x1c are whitespace, '٣' is a digit
BLOCK_INTS = ["+5", "007", "-0", "1234567890123456789", "9999999999999999999", "٣",
              "0", "1"]
BLOCK_SEPS = [" ", "\t", "\x0b", "\x0c", "\x1c", "  "]


def _block_line(heads, min_size, max_size):
    tokens = st.lists(st.sampled_from(BLOCK_INTS + ["rel", "relx", "x"]),
                      min_size=min_size, max_size=max_size)
    return st.tuples(st.sampled_from(["", "", " ", "\t"]), st.sampled_from(heads),
                     tokens, st.lists(st.sampled_from(BLOCK_SEPS), min_size=6,
                                      max_size=6)).map(
        lambda p: p[0] + "".join(t + sep for t, sep in zip([p[1], *p[2]], p[3])))


# mostly one-record lines, so that whole blocks take the one-split route
BLOCK_LINES = st.one_of(_block_line(["rel", "rel", "relx"], 3, 3),
                        _block_line(BLOCK_INTS, 0, 0),
                        _block_line(BLOCK_INTS + ["rel", "relx"], 0, 4))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(BLOCK_LINES, max_size=6), data=st.data())
def test_table_is_ints_record_by_record(tmp_path, lines, data):
    path = tmp_path / "block.txt"
    path.write_text("\n".join(lines) + "\n")
    rec = dl.spaces.Records(str(path))
    start = data.draw(st.integers(0, len(rec.lines)))
    stop = data.draw(st.integers(start, len(rec.lines)))
    for keyword, fields in [("rel", "u v c"), (None, "image"), ("rel", "u")]:
        try:
            want = [rec.ints(i, keyword, fields) for i in range(start, stop)]
        except dl.SchemeError as exc:
            with pytest.raises(dl.SchemeError) as got:
                rec.table(keyword, fields, start, stop)
            assert str(got.value) == str(exc)
        else:
            assert rec.table(keyword, fields, start, stop).tolist() == want


@pytest.mark.parametrize("text, found", [
    ("rel 0 1\nrel 0 1 1 1\n", "rel 0 1"),       # wrong widths, right total
    ("rel 1 2\n3 rel 4 5 6\n", "rel 1 2"),       # heads in place, lines not
    ("rel 0 1 2\nrelx 0 1 2\n", "relx 0 1 2"),  # a line that only starts like one
    ("rel 0 1 2\n rel 0 1 2\n3\n", "3"),
])
def test_table_rejects_blocks_whose_lines_are_not_records(tmp_path, text, found):
    path = tmp_path / "block.txt"
    path.write_text(text)
    with pytest.raises(dl.SchemeError) as exc:
        dl.spaces.Records(str(path)).table("rel", "u v c")
    assert f"expected 'rel u v c', found '{found}'" in str(exc.value)


@pytest.mark.parametrize("data, where", [
    (b"scheme 2 1\r\n# c\r\n\r\nrel 0 1 x\r\n", ":4:"),             # CRLF
    (b"graph 3\nedge 0 1\n\nedge 0 3", ":4:"),                       # no final newline
    (b"graph 3\r\nedge 0 1\r\r\nedge 0 3", ":4:"),                   # CR and CRLF
    # form feed, \x1c and U+2028 separate tokens, but do not end a line
    (b"graph 3\nedge 0\x0c1\nedge 1\x1c2\nedge 0\xe2\x80\xa81\nedge 0 3\n", ":5:"),
])
def test_line_numbers_count_newlines_only(tmp_path, data, where):
    path = tmp_path / "data.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        dl.load_space(str(path))
    assert str(exc.value).startswith(f"{path}{where} ")


def test_well_formed_files_are_read_in_one_split(tmp_path, monkeypatch):
    h72 = dl.hamming(7, 2)
    space_path, perm_path = tmp_path / "h72.txt", tmp_path / "perms.txt"
    dl.save_space(h72, str(space_path))
    design = dl.make_design([3, 77])
    perms = dl.translations_to_origin(h72, design).permutations
    perm_path.write_text("".join("perm 128\n# block\n" + "\n".join(map(str, p)) + "\n"
                                 for p in perms))
    ints = dl.spaces.Records.ints

    def header_only(rec, index, *args):
        # the space header, record 0, is the one record parsed on its own
        if index == 0:
            return ints(rec, index, *args)
        raise AssertionError(f"record {index} parsed on its own")

    monkeypatch.setattr(dl.spaces.Records, "ints", header_only)
    space = dl.load_space(str(space_path))
    assert np.array_equal(space.classes, h72.classes)
    action = dl.load_isometries(str(perm_path), space, design)
    assert np.array_equal(action.permutations, perms)
