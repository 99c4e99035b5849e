"""Input rules: a space's carried valencies are validated, a spec names
each parameter once, and a file that is not UTF-8 names its path and
line in every loader."""

import dataclasses

import numpy as np
import pytest

import designlab as dl


# ---------------------------------------------------------------------------
# validate_scheme compares the carried valencies with the class counts


def test_validate_rejects_wrong_carried_valencies():
    h = dl.hamming(3, 2)
    space = dataclasses.replace(h, valencies=np.array([1, 3, 3, 2]))
    report = dl.validate_scheme(space)
    assert not report.valid
    assert report.failures == ["valencies [1, 3, 3, 2] differ from the class "
                               "counts [1, 3, 3, 1] of every vertex"]
    with pytest.raises(RuntimeError, match="symmetry fails"):
        dl.spectral_decomposition(space)


def test_validate_names_valencies_of_another_length():
    h = dl.hamming(3, 2)
    report = dl.validate_scheme(dataclasses.replace(h, valencies=np.array([1, 3, 3])))
    assert report.failures == ["valencies [1, 3, 3] differ from the class counts "
                               "[1, 3, 3, 1] of every vertex"]


def test_valencies_failure_comes_after_the_product_failures():
    c6 = dl.cycle(6)
    space = dataclasses.replace(c6, kind="scheme", n_classes=2,
                                classes=np.minimum(c6.classes, 2),
                                valencies=np.array([1, 2, 2]),
                                intersection_numbers=None)
    report = dl.validate_scheme(space)
    assert report.failures[0] == ("p^2_{1,1} not constant: witness triple "
                                  "(i=1, j=1, k=2) at pair (0,3)")
    assert report.failures[-1] == ("valencies [1, 2, 2] differ from the class "
                                   "counts [1, 2, 3] of every vertex")


@pytest.mark.parametrize("space", [dl.hamming(4, 3), dl.johnson(7, 3), dl.cycle(9)],
                         ids=["H(4,3)", "J(7,3)", "C(9)"])
def test_built_in_valencies_validate(space):
    assert dl.validate_scheme(space).valid


# ---------------------------------------------------------------------------
# space specs take each parameter exactly once


@pytest.mark.parametrize("spec, part", [
    ("hamming:n=3,q=2,x=7", "x=7"),
    ("hamming:n=3,n=4,q=2", "n=4"),
    ("cycle:n=5,n=5", "n=5"),
    ("johnson:n=7,q=3", "q=3"),
    ("hamming:n=x,q=2", "n=x"),
])
def test_spec_rejects_unknown_repeated_and_non_integer_parameters(spec, part):
    with pytest.raises(dl.SchemeError) as exc:
        dl.build_named_space(spec)
    assert str(exc.value) == f"bad parameter {part!r} in spec {spec!r}"


@pytest.mark.parametrize("spec, message", [
    ("hamming:n=3", "spec 'hamming:n=3' missing parameter 'q'"),
    ("johnson:w=3", "spec 'johnson:w=3' missing parameter 'n'"),
    ("foo:n=3", "unknown space family 'foo'"),
    ("hamming", "cannot parse space spec 'hamming'"),
])
def test_spec_messages_for_missing_and_unknown(spec, message):
    with pytest.raises(dl.SchemeError) as exc:
        dl.build_named_space(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec, want", [
    ("hamming:q=3,n=2", (9, 2)), ("johnson:w=2,n=5", (10, 2)),
    ("cycle:n=7", (7, 3)),
])
def test_spec_parameters_in_any_order(spec, want):
    space = dl.build_named_space(spec, laplacian_class=1)
    assert (space.n_vertices, space.n_classes) == want


# ---------------------------------------------------------------------------
# a file that is not UTF-8 names itself


def _loaders(path):
    h = dl.hamming(2, 2)
    design = dl.make_design([0])
    return {
        "space": lambda: dl.load_space(path),
        "design": lambda: dl.load_design(path),
        "subset": lambda: dl.load_subset(path),
        "isometries": lambda: dl.load_isometries(path, h, design),
    }


@pytest.mark.parametrize("loader", ["space", "design", "subset", "isometries"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_non_utf8_byte_names_path_and_line(tmp_path, loader, newline):
    path = tmp_path / "f.txt"
    path.write_bytes(newline.join([b"# head", b"", b"0", b"1 \xff", b"2"]))
    with pytest.raises(dl.SchemeError) as exc:
        _loaders(str(path))[loader]()
    assert str(exc.value) == f"{path}:4: not UTF-8 text"


def test_non_utf8_line_is_counted_in_the_whole_file(tmp_path):
    # the bad byte 288 890 bytes in, far past any read buffer
    body = b"".join(b"%d\n" % i for i in range(50000))
    path = tmp_path / "long.txt"
    path.write_bytes(body + b"\xff")
    lines = body.count(b"\n")
    with pytest.raises(dl.SchemeError) as exc:
        dl.load_subset(str(path))
    assert str(exc.value) == f"{path}:{lines + 1}: not UTF-8 text"


def test_truncated_multibyte_character_at_end_of_file(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_bytes(b"0\n1\n\xc3")
    with pytest.raises(dl.SchemeError) as exc:
        dl.load_design(str(path))
    assert str(exc.value) == f"{path}:3: not UTF-8 text"


def test_utf8_text_still_loads(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# café\n3\n1\n", encoding="utf-8")
    assert list(dl.load_subset(str(path))) == [1, 3]
