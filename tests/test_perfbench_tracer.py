"""The benchmark's tracer still fits the program.

`perfbench/spans.py` wraps every function its LAYERS table names, by module
and name, so a target that is renamed, removed, or turned from a method into
a property breaks `perfbench/run.py --trace 1`.  This test loads that file
as it is, installs its tracer over the package, and checks that traced runs
print the same bytes as untraced ones and record spans.  The periodic
levels of `analyze` must reach the module functions the tracer patches, so
a power cache that went round them would fail here.
"""

import importlib.util
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
