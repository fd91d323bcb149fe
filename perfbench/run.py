"""Benchmark of the exact engine on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is analyze-stream, query-session, symbolic-certify, or `all` (each
workload in turn).  The run generates the workload's inputs from the seed,
runs its set-up and ops in a fresh single-threaded worker process, checks
every output independently (`oracle.py`), and prints each metric with its
unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
ops run under the span tracer (`spans.py`) and the metrics are per layer.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import generate
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("analyze-stream", "query-session", "symbolic-certify")
WORKER_TIMEOUT_S = 170

# op_tail_s is this quantile of op latency; every run times at least
# worker.MIN_TIMED_OPS = 50 ops, so ten or more ops lie beyond it.
TAIL_QUANTILE = Fraction(4, 5)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def end_to_end(result):
    durations, k = result["durations_s"], result["round_ops"]
    rounds = [durations[i:i + k] for i in range(0, len(durations), k)]
    return {
        "ops_per_s": statistics.median(len(r) / sum(r) for r in rounds),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": quantile(durations, TAIL_QUANTILE),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(workload, result):
    values = dict(result["layers"])
    outputs = [json.loads(t) for t in result["reference"] if t is not None]
    points, entries = 0.0, 0.0
    if workload == "symbolic-certify" and outputs:
        points = statistics.fmean(o["ball"]["points_enumerated"] for o in outputs)
        entries = statistics.fmean(
            sum(2 * o[c]["certificate"]["horizon"] + 1 for c in ("circle", "interval"))
            for o in outputs
        )
    values["shift.points_enumerated"] = points
    values["circle.trace_entries"] = entries
    units = {name: "s" for name in spans.layer_metric_names()}
    return {name: (value, units.get(name, "count")) for name, value in values.items()}


def check(workload, data, result):
    outputs = result["reference"]
    if workload == "analyze-stream":
        return oracle.check_analyze(data, outputs)
    if workload == "query-session":
        return oracle.check_session(data, outputs)
    from expobs.circle import parse_certificate, verify_certificate
    from expobs.shift import enumerate_points

    alphabet = tuple(data[0]["observable"]["alphabet"])
    candidates = [(p.left, p.core, p.right, p.offset)
                  for p in enumerate_points(alphabet, data[0]["bound"])]
    return oracle.check_symbolic(
        data, outputs, candidates,
        lambda doc: verify_certificate(parse_certificate(doc)).ok,
    )


def run_workload(workload, seed, seconds, trace):
    directory = os.path.join(OUT, workload)
    shutil.rmtree(directory, ignore_errors=True)
    inputs = generate.write(workload, seed, directory)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--dir", directory, "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(directory, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    with open(inputs, encoding="utf-8") as fh:
        data = json.load(fh)["data"]

    problems = check(workload, data, result)
    if result["mismatched"]:
        problems.append(f"{result['mismatched']} op outputs differ from the warm-up round")
    for line in result["errors"] + problems[:20]:
        print(f"{workload}: {line}", file=sys.stderr)
    if trace:
        metrics = per_layer(workload, result)
        print(f"{workload}: traced ops_per_s {end_to_end(result)['ops_per_s']:.6g} 1/s")
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(result).items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": len(result["durations_s"]),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the exact engine")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "expobs", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
