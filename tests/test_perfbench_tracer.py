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
