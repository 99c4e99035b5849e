"""Each CLI action takes only the flags its code reads, by full name.

A missing required flag, a flag the action does not take and an
abbreviated flag are usage errors: exit status 2, nothing on stdout and
argparse's ``error:`` line on stderr.  Invalid values of flags the action
does take stay ``error:`` lines on stdout with exit status 1.
"""

import argparse

import pytest

from designlab.cli import _build_parser, main

H32 = "hamming:n=3,q=2"

# flags of each leaf parser, --help aside
FLAGS = {
    ("space", "info"): {"--format", "--threads", "--relation"},
    ("space", "validate"): {"--format", "--threads", "--relation"},
    ("spectrum",): {"--tol", "--format", "--threads", "--relation"},
    ("subset-eig",): {"--ball", "--spheres", "--set", "--tol", "--format",
                      "--threads", "--relation", "--origin"},
    ("design", "verify"): {"--design", "--t", "--tol", "--format", "--threads",
                           "--relation"},
    ("design", "strength"): {"--design", "--tol", "--format", "--threads",
                             "--relation"},
    ("design", "search"): {"--t", "--max-size", "--tol", "--format", "--threads",
                           "--relation"},
    ("bound",): {"--t", "--ball", "--auto", "--set", "--tol", "--format",
                 "--threads", "--relation", "--origin"},
    ("cover",): {"--design", "--t", "--ball", "--isometries", "--tol", "--format",
                 "--threads", "--relation", "--origin"},
    ("torus", "density-bound"): {"--dim", "--format", "--threads"},
    ("torus", "covolume-bound"): {"--dim", "--shortest", "--format", "--threads"},
}


def _parsers(parser, path=()):
    """(path, parser) for the top parser and every subparser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def _leaves():
    return {path: p for path, p in _parsers(_build_parser())
            if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)}


def test_each_action_takes_exactly_its_flags():
    got = {path: {o for a in p._actions for o in a.option_strings if o != "--help"}
           - {"-h"} for path, p in _leaves().items()}
    assert got == FLAGS
    assert sum(map(len, got.values())) == 60


def test_no_parser_takes_abbreviations():
    parsers = list(_parsers(_build_parser()))
    assert len(parsers) == 15                      # top, 3 groups, 11 actions
    assert all(p.allow_abbrev is False for _, p in parsers)


@pytest.mark.parametrize("path", list(FLAGS), ids=" ".join)
def test_help_of_every_action_exits_0(capsys, path):
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: designlab {' '.join(path)}")


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv, flag", [
    (["design", "search", "cycle:n=4"], "--t"),
    (["design", "search", "cycle:n=4", "--max-size", "4"], "--t"),
    (["design", "verify", H32, "--t", "2"], "--design"),
    (["design", "verify", H32, "--design", "d.txt"], "--t"),
    (["design", "strength", H32], "--design"),
    (["torus", "covolume-bound", "--dim", "3"], "--shortest"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_missing_required_flag_is_a_usage_error(capsys, argv, flag):
    line = _usage_error(capsys, argv)
    assert line.endswith(f"error: the following arguments are required: {flag}")


@pytest.mark.parametrize("argv", [
    ["space", "info", H32, "--origin", "99"],
    ["space", "validate", H32, "--tol", "1"],
    ["spectrum", H32, "--origin", "3"],
    ["spectrum", H32, "--origin", "0"],
    ["design", "strength", H32, "--design", "d.txt", "--t", "3"],
    ["design", "strength", H32, "--design", "d.txt", "--origin", "5"],
    ["design", "search", H32, "--t", "2", "--design", "d.txt"],
    ["design", "verify", H32, "--design", "d.txt", "--t", "2", "--max-size", "3"],
    ["torus", "density-bound", "--dim", "8", "--relation", "7"],
    ["torus", "density-bound", "--dim", "8", "--origin", "99"],
    ["torus", "density-bound", "--dim", "8", "--tol", "0.5"],
    ["torus", "density-bound", "--dim", "8", "--shortest", "2"],
], ids=" ".join)
def test_flag_the_action_does_not_read_is_a_usage_error(capsys, argv):
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    line = _usage_error(capsys, argv)
    assert "error: unrecognized arguments:" in line and flag in line


def test_flags_follow_the_action(capsys):
    # "space" itself takes no --format, so "csv" is read as its action
    line = _usage_error(capsys, ["space", "--format", "csv", "info", H32])
    assert line.startswith("designlab space: error: argument action: invalid choice")


@pytest.mark.parametrize("argv, prefix", [
    (["bound", H32, "--t", "2", "--au"], "--au"),
    (["bound", H32, "--t", "2", "--auto", "--thr", "1"], "--thr"),
    (["bound", H32, "--t", "2", "--auto", "--ori", "2"], "--ori"),
    (["design", "search", "cycle:n=4", "--t", "4", "--max", "2"], "--max"),
    (["subset-eig", H32, "--ball", "1", "--form", "csv"], "--form"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_abbreviated_flag_is_a_usage_error(capsys, argv, prefix):
    assert prefix in _usage_error(capsys, argv)


def test_full_flag_names_still_work(capsys):
    assert main(["design", "search", "cycle:n=4", "--t", "4", "--max-size", "4",
                 "--format=csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "found,true"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("relation", [0, 9])
def test_relation_out_of_range(capsys, relation):
    code, out = run(capsys, "space", "info", H32, "--relation", str(relation))
    assert (code, out) == (1, f"error: laplacian class {relation} out of range 1..3\n")


def test_family_over_the_cap(capsys):
    code, out = run(capsys, "space", "info", "johnson:n=16,w=8")
    assert (code, out) == (1, "error: johnson(16,8) has 12870 vertices > cap 4096\n")


def test_negative_threads(capsys):
    code, out = run(capsys, "torus", "density-bound", "--dim", "8", "--threads", "-1")
    assert (code, out) == (1, "error: threads must be >= 0\n")
