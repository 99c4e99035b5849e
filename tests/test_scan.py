"""The byte-level scan behind the four file loaders, against the per-record
``ints`` route: the same arrays, or the same ``PATH:LINE`` error, on files
with every deviation the grammar allows or rejects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designlab as dl
from designlab.spaces import Records

from conftest import extended_hamming_code

H32 = dl.hamming(3, 2)
CODE = dl.make_design([0, 3, 5, 6])          # the even-weight code of H(3,2)


def _base_records():
    """A valid file of each format, as token lists, one per record."""
    scheme = [["scheme", "8", "3"]] + [["rel", str(u), str(v), str(H32.classes[u, v])]
                                       for u in range(8) for v in range(u + 1, 8)]
    graph = [["graph", "6"]] + [["edge", str(u), str((u + 1) % 6)] for u in range(6)]
    design = [["0"], ["3", "2"], ["5"], ["6", "1"]]
    subset = [["1"], ["2"], ["4"], ["7"]]
    isometries = []
    for perm in dl.translations_to_origin(H32, CODE).permutations:
        isometries += [["perm", "8"]] + [[str(x)] for x in perm]
    return {"scheme": scheme, "graph": graph, "design": design, "subset": subset,
            "isometries": isometries}


BASE = _base_records()
LOADERS = {
    "scheme": dl.load_space,
    "graph": dl.load_space,
    "design": lambda path: dl.load_design(path, n_vertices=8),
    "subset": lambda path: dl.load_subset(path, n_vertices=8),
    "isometries": lambda path: dl.load_isometries(path, H32, CODE),
}


def _summary(value):
    if isinstance(value, dl.Space):
        return value.kind, value.n_classes, value.classes.tolist()
    if isinstance(value, dl.Design):
        return value.points.tolist(), value.weights.tolist()
    if isinstance(value, dl.IsometryAction):
        return value.permutations.tolist()
    return value.tolist()


def _outcome(load, path):
    try:
        return _summary(load(path))
    except ValueError as exc:               # SchemeError included
        return type(exc).__name__, str(exc)


def _per_record_only(mp):
    """Send every record through ``Records.ints``: the scan finds no plain
    record and no header equal to its expected text."""
    mp.setattr(Records, "_scan", lambda self, index, keyword: (
        np.zeros(0, np.int64), np.zeros(len(index), np.intp), np.zeros(len(index), bool)))
    mp.setattr(Records, "equals", lambda self, index, text: np.zeros(len(index), bool))


# each deviation rewrites one token list; some keep the value, some do not
def _numeric(tokens):
    return [i for i, t in enumerate(tokens) if t.isdigit()]


def _at_number(rewrite):
    def apply(tokens, k):
        nums = _numeric(tokens)
        if not nums:
            return tokens
        i = nums[k % len(nums)]
        return tokens[:i] + [rewrite(tokens[i])] + tokens[i + 1:]
    return apply


ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
DEVIATIONS = {
    "plus": _at_number(lambda t: "+" + t),
    "minus": _at_number(lambda t: "-" + t),
    "zeros": _at_number(lambda t: "00" + t),
    "19 digits": _at_number(lambda t: t.zfill(19)),
    "20 digits": _at_number(lambda t: t.zfill(20)),
    "2^63 - 1": _at_number(lambda t: "9223372036854775807"),
    "2^63": _at_number(lambda t: "9223372036854775808"),
    "19 nines": _at_number(lambda t: "9" * 19),
    "20-digit number": _at_number(lambda t: "12345678901234567890"),
    "arabic digits": _at_number(lambda t: t.translate(ARABIC)),
    "underscore": _at_number(lambda t: t[0] + "_0"),
    "letter": _at_number(lambda t: "x"),
    "fewer": lambda tokens, k: tokens[:-1],
    "more": lambda tokens, k: tokens + [str(k % 8)],
    "no keyword": lambda tokens, k: tokens[1:],
    "keyword mid-line": lambda tokens, k: tokens[1:2] + tokens[:1] + tokens[2:],
    "wrong keyword": lambda tokens, k: [["relx", "edge", "rel", "perm", "#"][k % 5]]
    + tokens[1:],
    "keyword joined": lambda tokens, k: [tokens[0] + tokens[1]] + tokens[2:]
    if len(tokens) > 1 else tokens,
}
SEPARATORS = [" ", " ", " ", " ", "  ", "\t", "\x0c", "\x0b"]
EDGES = ["", "", "", " ", "\t"]              # before and after a record's tokens
BETWEEN = ["", "# comment", "#", "   ", "  # indented", "\t# tab", "#rel 0 1 1"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def _file(draw, fmt):
    """The text of a file of ``fmt``: its base records, some deviated, with
    drawn separators, line ends and lines between records."""
    base = BASE[fmt]
    bad = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                  st.sampled_from(sorted(DEVIATIONS)),
                                  st.integers(0, 7)), max_size=2))
    records = [list(r) for r in base]
    for i, name, k in bad:
        records[i] = DEVIATIONS[name](records[i], k)
    # plain: one space between tokens, one kind of line end; between: plain,
    # with comment and blank lines between records; mixed: between, with
    # any separators and line ends
    style = draw(st.sampled_from(["plain", "between", "mixed"]))
    ends = draw(st.sampled_from(LINE_ENDS))
    lines = []
    for tokens in records:
        if style != "plain" and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BETWEEN)))
        if style != "mixed":
            lines.append(" ".join(tokens))
        else:
            gaps = max(len(tokens) - 1, 0)
            seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=gaps, max_size=gaps))
            lines.append(draw(st.sampled_from(EDGES))
                         + "".join(t + s for t, s in zip(tokens, [*seps, ""]))
                         + draw(st.sampled_from(EDGES)))
    mixed = style == "mixed" and draw(st.booleans())
    text = "".join(line + (draw(st.sampled_from(LINE_ENDS)) if mixed else ends)
                   for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")           # no final line end
    return text


def _same_outcome(path, fmt, text):
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(LOADERS[fmt], str(path))
    with pytest.MonkeyPatch.context() as mp:
        _per_record_only(mp)
        want = _outcome(LOADERS[fmt], str(path))
    assert got == want
    return got


@pytest.mark.parametrize("fmt", sorted(BASE))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_equals_the_per_record_route(tmp_path_factory, fmt, data):
    path = tmp_path_factory.mktemp("scan") / f"{fmt}.txt"
    _same_outcome(path, fmt, data.draw(_file(fmt)))


def _plain(records):
    return "".join(" ".join(tokens) + "\n" for tokens in records)


@pytest.mark.parametrize("fmt", sorted(BASE))
def test_base_files_load(tmp_path, fmt):
    path = tmp_path / "data.txt"
    path.write_text(_plain(BASE[fmt]))
    LOADERS[fmt](str(path))
    _same_outcome(path, fmt, _plain(BASE[fmt]))


@pytest.mark.parametrize("fmt", sorted(BASE))
@pytest.mark.parametrize("name", sorted(DEVIATIONS))
def test_each_deviation_on_plain_lines(tmp_path, fmt, name):
    """Every deviation, on the first, second and last record of a file
    whose other records are plain, and again after a comment line."""
    base = BASE[fmt]
    for i in (0, 1, len(base) - 1):
        for k in range(2):
            records = [list(r) for r in base]
            records[i] = DEVIATIONS[name](records[i], k)
            _same_outcome(tmp_path / "data.txt", fmt, _plain(records))
            records.insert(i, ["#"])
            _same_outcome(tmp_path / "data.txt", fmt, _plain(records))


@pytest.mark.parametrize("fmt", sorted(BASE))
@pytest.mark.parametrize("pair", [("fewer", "more"), ("more", "fewer")])
def test_token_counts_are_per_record(tmp_path, fmt, pair):
    """One record short and its neighbour long by one: the right total of
    tokens, in the wrong records."""
    base = BASE[fmt]
    for i in range(len(base) - 1):
        records = [list(r) for r in base]
        records[i] = DEVIATIONS[pair[0]](records[i], 0)
        records[i + 1] = DEVIATIONS[pair[1]](records[i + 1], 0)
        _same_outcome(tmp_path / "data.txt", fmt, _plain(records))


@pytest.mark.parametrize("head", ["perm 9", "perm", "perm x", "perm -8", "perm 8 8", "8"])
def test_isometry_errors_come_in_file_order(tmp_path, head):
    """A bad header and a bad image, in either order: the first one in the
    file is the one named."""
    path = tmp_path / "perms.txt"
    for block in range(len(BASE["isometries"]) // 9):
        for image in range(len(BASE["isometries"])):
            if image % 9 == 0:
                continue
            records = [list(r) for r in BASE["isometries"]]
            records[9 * block] = head.split()
            records[image] = ["x"]
            message = _same_outcome(path, "isometries", _plain(records))[1]
            assert message.startswith(f"{path}:{1 + min(9 * block, image)}: ")


@pytest.mark.parametrize("text, found", [
    ("0 00000000000000000000000000007\n", [[0, 7]]),     # 29 digits, value 7
    ("9223372036854775807\n", [[9223372036854775807, 1]]),
    ("0\n1 2\n\n# c\n3\n", [[0, 1], [1, 2], [3, 1]]),
])
def test_design_records_take_both_widths(tmp_path, text, found):
    path = tmp_path / "design.txt"
    path.write_text(text)
    assert Records(str(path)).table(None, "vertex [weight]", missing=1).tolist() == found


def test_files_load_through_the_scan(tmp_path, monkeypatch):
    """Well-formed files of every format, some with comments between
    records, load without one record parsed on its own."""
    h82, j83 = dl.hamming(8, 2), dl.johnson(8, 3)
    paths = {name: tmp_path / f"{name}.txt"
             for name in ("h82", "j83", "graph", "design", "subset", "perms")}
    dl.save_space(h82, str(paths["h82"]))
    dl.save_space(j83, str(paths["j83"]))
    edges = np.argwhere(np.triu(h82.classes == 1))
    paths["graph"].write_text("# the 8-cube\ngraph 256\n"
                              + "".join(f"edge {u} {v}\n" for u, v in edges))
    code = extended_hamming_code()
    weights = [1 + i % 3 for i in range(len(code))]
    paths["design"].write_text("".join(f"{v}\n" if w == 1 else f"{v} {w}\n"
                                       for v, w in zip(code, weights)))
    ball = np.flatnonzero(h82.classes[0] <= 2)
    paths["subset"].write_text("# ball 2\n" + "".join(f"{v}\n" for v in ball[::-1]))
    perms = dl.translations_to_origin(h82, dl.make_design(code)).permutations
    assert len(perms) == 16
    paths["perms"].write_text("".join(f"perm 256\n# block {k}\n" + "\n".join(map(str, p))
                                      + "\n\n" for k, p in enumerate(perms)))

    def refuse(*args):
        raise AssertionError("a record parsed on its own")

    monkeypatch.setattr(Records, "ints", refuse)
    monkeypatch.setattr(dl.designs, "_header_fault", refuse)
    assert np.array_equal(dl.load_space(str(paths["h82"])).classes, h82.classes)
    assert np.array_equal(dl.load_space(str(paths["j83"])).classes, j83.classes)
    graph = dl.load_space(str(paths["graph"]))
    assert graph.kind == "graph" and np.array_equal(graph.classes, np.minimum(h82.classes, 2))
    design = dl.load_design(str(paths["design"]), 256)
    order = np.argsort(code)
    assert design.points.tolist() == sorted(code)
    assert design.weights.tolist() == np.array(weights)[order].tolist()
    assert dl.load_subset(str(paths["subset"]), 256).tolist() == ball.tolist()
    action = dl.load_isometries(str(paths["perms"]), h82, dl.make_design(code))
    assert np.array_equal(action.permutations, perms)
