"""Runs one workload's set-up and operations in a process of its own.

    python3 perfbench/worker.py --workload NAME --dir DIR --seconds S --trace 0|1

DIR holds the generator's `inputs.json`; the worker writes `result.json`
there.  `run.py` starts it with the program's `src` on PYTHONPATH and a fixed
PYTHONHASHSEED, checks its outputs, and turns its timings into metrics.

The loop is closed with one client: each op starts when the previous one has
returned.  Order of events:

1. set-up, repeated `setup_repeats` times; every repeat is timed;
2. one warm-up round of every op, untimed and untraced; its outputs are the
   reference every later output of the same op must equal byte for byte;
3. whole timed rounds until `--seconds` have passed and at least
   `MIN_TIMED_OPS` ops ran; `gc.collect()` runs between ops, outside the
   timed interval, and so does rendering each output for the comparison.

With `--trace 1` the tracer is installed before the set-up, and a span opens
around each set-up repeat and each timed op.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

from spans import OP_ROOT, SETUP_ROOT, Tracer

# Every run times at least this many ops, so that the 80th percentile of
# op latency always has ten ops beyond it.
MIN_TIMED_OPS = 50

INF_TEXT = "inf"


def _module(name):
    # `import expobs.shift` would bind the function `expobs.shift`, which
    # shadows the submodule; ask for the module itself.
    return importlib.import_module(f"expobs.{name}")


def _ext(value) -> str:
    return str(value) if isinstance(value, (int, Fraction)) else INF_TEXT


class AnalyzeStream:
    """One op: `expobs analyze` through `cli.main` on one system, writing its
    report to a file.  Set-up: a fresh interpreter importing `expobs.cli`."""

    setup_repeats = 11

    def __init__(self, data):
        self.specs = data
        self.round_ops = len(data)
        self.argvs = [self._argv(spec) for spec in data]
        self.cli = _module("cli")

    def setup(self) -> float:
        # The child inherits this process's PYTHONPATH and PYTHONHASHSEED.
        code = ("import time; t = time.perf_counter(); import expobs.cli; "
                "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        return float(done.stdout)

    @staticmethod
    def _argv(spec):
        paths = spec["paths"]
        argv = ["analyze", "--system", paths["system"]]
        for path in paths["observables"]:
            argv += ["--observable", path]
        return argv + ["--out", paths["report"]]

    def run(self, i):
        code = self.cli.main(self.argvs[i])
        if code != 0:
            raise RuntimeError(f"expobs analyze exited with {code}")

    def render(self, i, result) -> str:
        with open(self.specs[i]["paths"]["report"], encoding="utf-8") as fh:
            return fh.read()


class QuerySession:
    """Systems and observables are parsed once per set-up; one op runs a fixed
    batch of queries against one loaded system."""

    setup_repeats = 5

    def __init__(self, data):
        self.data = data
        self.round_ops = len(data["ops"])
        self.model = _module("model")
        self.relations = _module("relations")
        self.algebra = _module("algebra")
        self.texts = [(json.dumps(s["system"]), json.dumps(s["target"]))
                      for s in data["systems"]]
        self.op_texts = [([json.dumps(d) for d in op["conj_observables"]],
                          json.dumps(op["fresh_observable"])) for op in data["ops"]]
        self.thresholds = [[Fraction(t) for t in s["thresholds"]] for s in data["systems"]]

    def setup(self) -> float:
        t0 = perf_counter()
        systems = [(self.model.parse_system(src), self.model.parse_system(tgt))
                   for src, tgt in self.texts]
        observables = []
        for op, (conj_docs, fresh_doc) in zip(self.data["ops"], self.op_texts):
            src, tgt = systems[op["system"]]
            observables.append((
                [self.model.parse_observable(doc, tgt) for doc in conj_docs],
                self.model.parse_observable(fresh_doc, src),
            ))
        elapsed = perf_counter() - t0
        self.systems, self.observables = systems, observables
        return elapsed

    def run(self, i):
        op = self.data["ops"][i]
        s = op["system"]
        src, tgt = self.systems[s]
        conj_observables, fresh = self.observables[i]
        algebra, relations = self.algebra, self.relations
        law = algebra.law_suite(src, op["trials"], op["law_seed"])
        conj = algebra.Conjugacy.build(src, tgt, self.data["systems"][s]["conjugacy"])
        transfer = algebra.conjugacy_invariance_report(conj, conj_observables)
        quotients = [relations.indistinguishability_quotient(src, t)
                     for t in self.thresholds[s]]
        return (law, transfer, quotients,
                relations.delta_star(src, fresh), relations.sigma_star(src, fresh))

    def render(self, i, result) -> str:
        law, transfer, quotients, dstar, sstar = result
        doc = {
            "law": law.to_document(),
            "conjugacy": {
                "isometry": transfer.isometry,
                "omega_h_table": [[str(t), str(w)] for t, w in transfer.omega_table],
                "entries": [[_ext(a), _ext(b)] for a, b in transfer.entries],
                "violations": list(transfer.violations),
            },
            "quotients": [{"threshold": str(q.threshold),
                           "blocks": [list(b) for b in q.blocks]} for q in quotients],
            "delta_star": _ext(dstar),
            "sigma_star_sq": _ext(sstar),
        }
        return json.dumps(doc, sort_keys=True)


class SymbolicCertify:
    """One op: a ball-inclusion check on the shift, then one circle and one
    interval certificate through JSON and back into the verifier.
    Set-up: `enumerate_points` with its cache emptied."""

    setup_repeats = 5

    def __init__(self, data):
        self.specs = data
        self.round_ops = len(data)
        self.shift = _module("shift")
        self.circle = _module("circle")
        self._enumerate = self.shift.enumerate_points  # keeps `cache_clear`
        alphabet = tuple(data[0]["observable"]["alphabet"])
        self.alphabet, self.bound = alphabet, data[0]["bound"]
        self.inputs = [
            (
                self.shift.parse_point(spec["point"], alphabet),
                self.shift.parse_cylinder_observable(spec["observable"]),
                Fraction(spec["epsilon"]),
                self.circle.parse_circle_map(spec["circle"]),
                Fraction(spec["circle_delta"]),
                Fraction(spec["interval_delta"]),
            )
            for spec in data
        ]

    def setup(self) -> float:
        self._enumerate.cache_clear()
        t0 = perf_counter()
        self.shift.enumerate_points(self.alphabet, self.bound)
        return perf_counter() - t0

    def run(self, i):
        spec = self.specs[i]
        x, phi, eps, circle_map, circle_delta, interval_delta = self.inputs[i]
        shift, circle = self.shift, self.circle
        ball = shift.check_ball_inclusion(x, phi, eps, spec["side"], spec["bound"])
        out = [ball]
        for cert in (circle.certify(circle_map, circle_delta),
                     circle.interval_pipeline(spec["interval"], interval_delta)):
            text = json.dumps(circle.serialize_certificate(cert))
            replayed = circle.verify_certificate(circle.parse_certificate(json.loads(text)))
            out += [text, replayed]
        return out

    def render(self, i, result) -> str:
        ball, circle_text, circle_check, interval_text, interval_check = result
        doc = {
            "ball": {
                "k": ball.k,
                "effective_epsilon": str(ball.effective_eps),
                "points_enumerated": ball.points_enumerated,
                "points_in_ball": ball.points_in_ball,
                "counterexamples": [self.shift.serialize_point(p) for p in ball.counterexamples],
            },
            "circle": {"certificate": json.loads(circle_text),
                       "violations": list(circle_check.violations)},
            "interval": {"certificate": json.loads(interval_text),
                         "violations": list(interval_check.violations)},
        }
        return json.dumps(doc, sort_keys=True)


WORKLOADS = {
    "analyze-stream": AnalyzeStream,
    "query-session": QuerySession,
    "symbolic-certify": SymbolicCertify,
}


def run_workload(name, directory, seconds, trace):
    with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as fh:
        data = json.load(fh)["data"]
    workload = WORKLOADS[name](data)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    setup_s = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        span = tracer.open(SETUP_ROOT) if tracer else None
        setup_s.append(workload.setup())
        if tracer:
            tracer.close(span)

    errors = []

    def attempt(i):
        try:
            return True, workload.run(i)
        except Exception:  # an op that fails is counted, not fatal
            if len(errors) < 3:
                errors.append(traceback.format_exc())
            return False, None

    if tracer:
        tracer.uninstall()
    reference = []
    for i in range(workload.round_ops):
        gc.collect()
        ok, result = attempt(i)
        reference.append(workload.render(i, result) if ok else None)
    if tracer:
        tracer.install()

    durations, failed, mismatched = [], 0, 0
    start = perf_counter()
    while len(durations) < MIN_TIMED_OPS or perf_counter() - start < seconds:
        for i in range(workload.round_ops):
            gc.collect()
            span = tracer.open(OP_ROOT) if tracer else None
            t0 = perf_counter()
            ok, result = attempt(i)
            t1 = perf_counter()
            if tracer:
                tracer.close(span)
            durations.append(t1 - t0)
            if not ok:
                failed += 1
            elif workload.render(i, result) != reference[i]:
                mismatched += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    return {
        "setup_s": setup_s,
        "durations_s": durations,
        "round_ops": workload.round_ops,
        "failed": failed,
        "mismatched": mismatched,
        "errors": errors,
        "peak_rss_kb": peak_rss_kb,
        "reference": reference,
        "layers": tracer.summarize() if tracer else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.dir, args.seconds, args.trace)
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
