"""The benchmark's tracer still fits the program.

`perfbench/spans.py` wraps every function its LAYERS table names, by module
and name, so a target that is renamed, removed, or turned from a method into
a property breaks `perfbench/run.py --trace 1`.  This test loads that file
as it is, installs its tracer over the package, and checks that traced runs
print the same bytes as untraced ones and record spans.  The periodic
levels of `analyze` must reach the module functions the tracer patches, so
a power cache that went round them would fail here.

The tracer patches a function only in the modules imported when it is
installed.  The benchmark's symbolic-certify and query-session workers import
a few modules, not the command line, so fresh interpreters in those states
check that every function their ops call is still recorded under its layer.
"""

import importlib.util
import json
from pathlib import Path

from expobs import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

RUNS = [
    ["analyze", "--system", str(FIXTURES / "line_swap_system.json"),
     "--observable", str(FIXTURES / "line_swap_split_observable.json")],
    ["circle", "certify", "--map", str(FIXTURES / "m0_circle.json"), "--delta", "1/16"],
]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names_inside(tracer, name) -> set:
    """Names of the spans recorded inside some span with this name."""
    inside = set()
    for idx, fid in enumerate(tracer.fid):
        parent = tracer.parent[idx]
        while parent >= 0:
            if tracer.names[tracer.fid[parent]] == name:
                inside.add(tracer.names[fid])
                break
            parent = tracer.parent[parent]
    return inside


def outputs(tmp_path, tag):
    out = []
    for k, argv in enumerate(RUNS):
        path = tmp_path / f"{tag}{k}.json"
        code = cli.main([*argv, "--out", str(path)])
        out.append((code, path.read_bytes()))
    return out


def test_traced_runs_print_the_same_bytes_and_record_spans(tmp_path):
    plain = outputs(tmp_path, "plain")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        traced = outputs(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [code for code, _ in plain] == [0, 0]
    recorded = {tracer.names[fid] for fid in tracer.fid}
    assert {"main", "analyze", "realized_distances", "mesh", "certify"} <= recorded
    assert {"power_system", "fixed_points", "periodic_level_report"} <= names_inside(
        tracer, "analyze"
    )
    assert outputs(tmp_path, "after") == plain


def test_ball_check_spans_hold_the_enumeration(tmp_path):
    """symbolic-certify times `enumerate_points` as its set-up and
    `check_ball_inclusion` in its ops: both must be recorded under their
    layers, and the enumeration a ball check needs runs inside its span."""
    shift = importlib.import_module("expobs.shift")
    argv = ["symbolic", "check-inclusion",
            "--point", str(FIXTURES / "homoclinic_point.json"),
            "--observable", str(FIXTURES / "window1_cylinder_observable.json"),
            "--epsilon", "1/8", "--alphabet", "01", "--bound", "7"]

    def run(tag):
        path = tmp_path / f"{tag}.json"
        return cli.main([*argv, "--out", str(path)]), path.read_bytes()

    plain = run("plain")
    shift.enumerate_points.cache_clear()
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        traced = run("traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0] == 0
    recorded = {tracer.names[fid]: tracer.layer_of[fid] for fid in tracer.fid}
    assert recorded["check_ball_inclusion"] == "shift.ball_s"
    assert recorded["enumerate_points"] == "shift.enumerate_s"
    assert "enumerate_points" in names_inside(tracer, "check_ball_inclusion")


# Run by a fresh interpreter with the repository root as its argument: loads
# spans.py, and `traced(calls)` installs the tracer over the modules imported
# so far, runs `calls`, and prints those modules and every recorded
# (function, layer).
PRELUDE = """
import importlib.util, json, sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(sys.argv[1])
spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def load(name):
    return json.loads((ROOT / "fixtures" / f"{name}.json").read_text())


def traced(calls):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "expobs")
    tracer = spans.Tracer()
    tracer.install()
    try:
        calls()
    finally:
        tracer.uninstall()
    recorded = sorted({(tracer.names[f], tracer.layer_of[f]) for f in tracer.fid})
    print(json.dumps({"loaded": loaded, "recorded": recorded}))
"""

SYMBOLIC_CERTIFY = PRELUDE + """
import expobs.circle as circle
import expobs.shift as shift

point = shift.parse_point(load("homoclinic_point"), ("0", "1"))
phi = shift.parse_cylinder_observable(load("window1_cylinder_observable"))
circle_map = circle.parse_circle_map(load("m0_circle"))


def calls():
    shift.check_ball_inclusion(point, phi, Fraction(1, 8), "s", 6)
    cert = circle.certify(circle_map, Fraction(1, 16))
    circle.interval_pipeline(load("valley_interval"), Fraction(1, 16))
    circle.verify_certificate(circle.parse_certificate(circle.serialize_certificate(cert)))


traced(calls)
"""

QUERY_SESSION = PRELUDE + """
import expobs.algebra as algebra
import expobs.model as model
import expobs.relations as relations

document = load("random_system_1")
system = model.parse_system(document)
phi = model.parse_observable(load("random_observable_1"), system)


def calls():
    algebra.law_suite(system, 2, 1)
    conj = algebra.Conjugacy.build(system, system, document["map"])
    algebra.conjugacy_invariance_report(conj, [phi])
    relations.indistinguishability_quotient(system, Fraction(3))
    relations.delta_star(system, phi)
    relations.sigma_star(system, phi)


traced(calls)
"""


def loaded_and_recorded(fresh_interpreter, program):
    result = json.loads(fresh_interpreter(program, str(ROOT)))
    return set(result["loaded"]), {tuple(span) for span in result["recorded"]}


def test_symbolic_certify_state_records_every_op_function(fresh_interpreter):
    loaded, recorded = loaded_and_recorded(fresh_interpreter, SYMBOLIC_CERTIFY)
    assert loaded.isdisjoint({"expobs.algebra", "expobs.report", "expobs.cli"})
    assert {
        ("check_ball_inclusion", "shift.ball_s"),
        ("certify", "circle.certify_s"),
        ("interval_pipeline", "circle.certify_s"),
        ("serialize_certificate", "circle.codec_s"),
        ("parse_certificate", "circle.codec_s"),
        ("verify_certificate", "circle.verify_s"),
    } <= recorded


def test_query_session_state_records_every_op_function(fresh_interpreter):
    loaded, recorded = loaded_and_recorded(fresh_interpreter, QUERY_SESSION)
    assert loaded.isdisjoint({"expobs.shift", "expobs.circle", "expobs.report", "expobs.cli"})
    assert {
        ("law_suite", "algebra.laws_s"),
        ("build", "algebra.conjugacy_s"),
        ("conjugacy_invariance_report", "algebra.conjugacy_s"),
        ("indistinguishability_quotient", "relations.thresholds_s"),
        ("delta_star", "relations.queries_s"),
        ("sigma_star", "relations.queries_s"),
    } <= recorded
