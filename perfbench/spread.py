"""Repeat mode: run workloads many times and report each metric's spread.

    python3 perfbench/spread.py --workload query-session --runs 10 --seconds 20
    python3 perfbench/spread.py --workload all --runs 10 --seconds 20 \
        --save after.json --against before.json

Each run is a separate `run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every metric the report gives the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the distance between the quartiles as a share of the median.

`--against` compares the medians with an earlier `--save` file and flags any
end-to-end metric that got worse by more than its bound in BENCHMARK.json,
and any change in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-stream", "query-session", "symbolic-certify")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spread of the benchmark's metrics")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's values to this JSON file")
    parser.add_argument("--against", help="compare medians with a file from --save")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if "all" in args.workload else tuple(args.workload)

    collected = {}
    for workload in workloads:
        values = {"failed_share": [], "correct": []}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            result = run_once(workload, seed, args.seconds, args.trace)
            elapsed = time.monotonic() - started
            values["correct"].append(result["correct"])
            values["failed_share"].append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({elapsed:.0f} s): " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        collected[workload] = values

    bounds = load_bounds()
    print(f"{'workload':18} {'metric':26} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}")
    for workload, values in collected.items():
        for name, series in values.items():
            if name in ("failed_share", "correct") or len(series) < 2:
                continue
            median, q1, q3, spread = summary(series)
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name][0]:
                flag = "  above bound"
            print(f"{workload:18} {name:26} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.2%}{flag}")
        print(f"{workload:18} {'all outputs correct':26} {all(values['correct'])}")

    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(collected, fh, indent=1)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)
        print("median change against", args.against)
        for workload, values in collected.items():
            old = before.get(workload, {})
            if "failed_share" in old and set(old["failed_share"]) != set(values["failed_share"]):
                print(f"{workload:18} failed share changed")
            for name, (bound, better) in bounds.items():
                if name not in values or name not in old:
                    continue
                a, b = statistics.median(old[name]), statistics.median(values[name])
                worse = (b - a) / a if better == "lower" else (a - b) / a
                verdict = "worse than bound" if worse > bound else "ok"
                print(f"{workload:18} {name:26} {a:11.5g} -> {b:11.5g} "
                      f"worse by {worse:+7.2%} (bound {bound:.0%}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
