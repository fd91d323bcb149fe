"""Any JSON value in any document argument: the CLI answers with exit 0, 1
or 2 and at most one stderr line, never a traceback.

Each example takes one subcommand, fills its other arguments with valid
values, and puts into one document argument either an arbitrary JSON value
or a valid document with one field replaced or removed.  Every argument is
passed as `--flag=value`, so argparse never reads a value as an option.
"""

import contextlib
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from expobs.circle import certify, parse_circle_map, serialize_certificate
from expobs.cli import main
from expobs.library import m0_circle_document, valley_interval_document
from expobs.model import parse_observable, parse_system
from expobs.report import analyze, render_report

SYSTEM = {
    "points": ["a", "b", "c", "d"],
    "metric": [["0", "1", "2", "3"], ["1", "0", "3", "2"],
               ["2", "3", "0", "1"], ["3", "2", "1", "0"]],
    "map": {"a": "b", "b": "a", "c": "d", "d": "c"},
}
BASE_DOCUMENTS = {
    "system": SYSTEM,
    "observable": {"values": {"a": "0", "b": "0", "c": "1", "d": "1"}},
    "bijection": {"a": "a", "b": "b", "c": "c", "d": "d"},
    # SYSTEM with a, b, c, d renamed w, x, y, z and listed in reverse.
    "relabelled_system": {
        "points": ["z", "y", "x", "w"],
        "metric": SYSTEM["metric"],
        "map": {"w": "x", "x": "w", "y": "z", "z": "y"},
    },
    "relabelling": {"a": "w", "b": "x", "c": "y", "d": "z"},
    "target_observable": {"values": {"w": "0", "x": "0", "y": "1", "z": "1"}},
    "point": {"left": "0", "core": "1", "right": "0"},
    "cylinder": {"window": 0, "alphabet": "01", "table": {"0": "0", "1": "1"}},
    "circle": m0_circle_document(),
    "pl_observable": {"breakpoints": ["0", "1"], "values": ["0", "1"]},
    "certificate": serialize_certificate(
        certify(parse_circle_map(m0_circle_document()), Fraction(1, 16))
    ),
    "interval": valley_interval_document(),
}
BASE_DOCUMENTS["report"] = json.loads(render_report(analyze(
    parse_system(SYSTEM),
    (parse_observable(BASE_DOCUMENTS["observable"], parse_system(SYSTEM)),),
)))

# (subcommand, [(flag, document kind or literal value), ...])
COMMANDS = [
    (("analyze",), [("--system", "system"), ("--observable", "observable")]),
    (("dstar",), [("--system", "system"), ("--observable", "observable")]),
    (("quotient",), [("--system", "system"), ("--threshold", "1")]),
    (("laws",), [("--system", "system"), ("--trials", "3"), ("--seed", "1")]),
    (("conjugacy",), [("--source", "system"), ("--target", "system"),
                      ("--map", "bijection"), ("--observable", "observable"),
                      ("--samples", "2")]),
    (("conjugacy",), [("--source", "system"), ("--target", "relabelled_system"),
                      ("--map", "relabelling"), ("--observable", "target_observable")]),
    (("symbolic", "distance"), [("--x", "point"), ("--y", "point")]),
    (("symbolic", "orbit-sup"), [("--x", "point"), ("--y", "point")]),
    (("symbolic", "ball"), [("--x", "point"), ("--y", "point"), ("--epsilon", "1/4")]),
    (("symbolic", "stable"), [("--x", "point"), ("--y", "point")]),
    (("symbolic", "obs-stable"), [("--x", "point"), ("--y", "point"),
                                  ("--observable", "cylinder")]),
    (("symbolic", "check-inclusion"), [("--point", "point"), ("--observable", "cylinder"),
                                       ("--epsilon", "1/4"), ("--alphabet", "01"),
                                       ("--bound", "3")]),
    (("symbolic", "asymptotic-pair"), [("--alphabet", "01"), ("--bound", "3"),
                                       ("--observable", "cylinder")]),
    (("circle", "rotnum"), [("--map", "circle")]),
    (("circle", "certify"), [("--map", "circle"), ("--delta", "1/16"),
                             ("--gap-observable", "pl_observable")]),
    (("circle", "verify"), [("--cert", "certificate")]),
    (("interval", "certify"), [("--map", "interval"), ("--delta", "1/16")]),
    (("plot",), [("--report", "report")]),
]
SLOTS = [
    (command, args, position)
    for command, args in COMMANDS
    for position, (_, kind) in enumerate(args)
    if kind in BASE_DOCUMENTS
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1", "1/2", "3/4", "-1/3", "01", "a", "b", "circle"])
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def documents(draw, base):
    """An arbitrary JSON value, or `base` with one field (or one element of
    a list field) replaced or removed."""
    if not isinstance(base, dict) or draw(st.booleans()):
        return draw(json_values)
    doc = json.loads(json.dumps(base))
    key = draw(st.sampled_from(sorted(doc)))
    target = doc
    if isinstance(doc[key], list) and doc[key] and draw(st.booleans()):
        target, key = doc[key], draw(st.integers(0, len(doc[key]) - 1))
    if isinstance(target, dict) and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return doc


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    """Working directory in which no JSON text names an existing file."""
    return tmp_path_factory.mktemp("fuzz")


@seed(20240611)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_document_gets_an_exit_code_and_one_error_line(empty_dir, data):
    command, args, position = data.draw(st.sampled_from(SLOTS), label="slot")
    argv = list(command)
    for index, (flag, kind) in enumerate(args):
        if index == position:
            value = json.dumps(data.draw(documents(BASE_DOCUMENTS[kind]), label=flag))
        else:
            value = json.dumps(BASE_DOCUMENTS[kind]) if kind in BASE_DOCUMENTS else kind
        argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(empty_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


TAMPERED = dict(BASE_DOCUMENTS["certificate"], probe=["11/48", "14/48"])
OUTPUT_CASES = [
    pytest.param(command, args, BASE_DOCUMENTS, 0,
                 id=" ".join(command) + (" relabelled" if ("--target", "relabelled_system") in args else ""))
    for command, args in COMMANDS
] + [
    pytest.param(("circle", "verify"), [("--cert", "certificate")],
                 dict(BASE_DOCUMENTS, certificate=TAMPERED), 2, id="circle verify tampered")
]


@pytest.mark.parametrize("command, args, documents, exit_code", OUTPUT_CASES)
def test_out_file_holds_the_bytes_stdout_prints(tmp_path, command, args, documents, exit_code):
    """Every command writes one text: `--out FILE` gets the bytes stdout
    shows without it, with the same exit code and nothing on stderr."""
    argv = list(command) + [
        f"{flag}={json.dumps(documents[kind]) if kind in documents else kind}"
        for flag, kind in args
    ]
    path = tmp_path / "out.txt"
    runs = []
    for extra in ([], ["--out", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + extra)
        runs.append((code, out.getvalue(), err.getvalue()))
    (code, printed, err), written = runs
    assert code == exit_code and printed and err == ""
    assert written == (exit_code, "", "")
    assert path.read_bytes() == printed.encode("utf-8")
