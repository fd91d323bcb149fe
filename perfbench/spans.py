"""Spans around the program's public functions, recorded from outside it.

`Tracer.install()` replaces each function named in LAYERS, in every
`expobs` module namespace that binds it (and on its class, for methods), by a
wrapper that records one span: which function, which span was open when it
was called, and its start and end.  The program's source is not touched, and
`uninstall()` puts the originals back.

Spans stay in memory, in flat arrays, until the run ends; `summarize()` then
derives each layer's self time per operation (span duration minus the time
its direct child spans cover) and the exact call counts.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter_ns

# layer -> (module, function or Class.method) pairs it owns.
LAYERS = {
    "model.parse_s": [
        ("expobs.model", "parse_system"),
        ("expobs.model", "FiniteSystem.build"),
        ("expobs.model", "parse_observable"),
    ],
    "relations.orbit_table_s": [
        ("expobs.relations", "pair_cycles"),
        ("expobs.relations", "orbit_distance_table"),
    ],
    "relations.thresholds_s": [
        ("expobs.relations", "e_star"),
        ("expobs.relations", "pointwise_constants"),
        ("expobs.relations", "omega_map"),
        ("expobs.relations", "indistinguishability_quotient"),
        ("expobs.model", "FiniteSystem.realized_distances"),
        ("expobs.model", "mesh"),
    ],
    "relations.queries_s": [
        ("expobs.relations", "delta_star"),
        ("expobs.relations", "sigma_star"),
        ("expobs.relations", "omega_obs"),
        ("expobs.relations", "separated_pairs"),
    ],
    "relations.periodic_s": [
        ("expobs.relations", "power_system"),
        ("expobs.relations", "fixed_points"),
        ("expobs.relations", "periodic_level_report"),
    ],
    "algebra.laws_s": [
        ("expobs.algebra", "law_suite"),
        ("expobs.algebra", "obs_add"),
        ("expobs.algebra", "obs_mul"),
        ("expobs.algebra", "obs_scale"),
        ("expobs.algebra", "obs_conjugate"),
    ],
    "algebra.conjugacy_s": [
        ("expobs.algebra", "Conjugacy.build"),
        ("expobs.algebra", "transport"),
        ("expobs.algebra", "omega_h"),
        ("expobs.algebra", "conjugacy_invariance_report"),
    ],
    "report.analyze_s": [("expobs.report", "analyze")],
    "report.render_s": [("expobs.report", "render_report")],
    "cli.io_s": [("expobs.cli", "main")],
    "shift.enumerate_s": [("expobs.shift", "enumerate_points")],
    "shift.ball_s": [
        ("expobs.shift", "check_ball_inclusion"),
        ("expobs.shift", "in_dynamical_ball"),
        ("expobs.shift", "snap_epsilon"),
    ],
    "shift.stable_s": [("expobs.shift", "obs_stable_equiv")],
    "circle.reduce_s": [
        ("expobs.circle", "rotation_number"),
        ("expobs.circle", "compose_circle"),
        ("expobs.circle", "circle_power"),
        ("expobs.circle", "periodic_points"),
        ("expobs.circle", "reduced_power"),
    ],
    "circle.certify_s": [
        ("expobs.circle", "certify"),
        ("expobs.circle", "interval_pipeline"),
    ],
    "circle.verify_s": [("expobs.circle", "verify_certificate")],
    "circle.codec_s": [
        ("expobs.circle", "serialize_certificate"),
        ("expobs.circle", "parse_certificate"),
    ],
}

# Layers whose work a workload does in its set-up rather than in its ops;
# their set-up self time is reported as "setup.<layer>".
SETUP_LAYERS = ("model.parse_s", "shift.enumerate_s")

# count metric -> functions whose calls it counts.
CALL_COUNTS = {
    "relations.pair_cycle_walks": ("pair_cycles",),
    "relations.query_calls": ("delta_star", "sigma_star", "omega_obs"),
    "circle.compositions": ("compose_circle",),
}

# Ids of the root spans the benchmark opens around each op and set-up repeat.
OP_ROOT = 0
SETUP_ROOT = 1


def layer_metric_names():
    return list(LAYERS) + [f"setup.{layer}" for layer in SETUP_LAYERS]


class Tracer:
    def __init__(self):
        # Function ids: OP_ROOT and SETUP_ROOT, then each target in LAYERS.
        self.targets = [(layer, module, qualname)
                        for layer, targets in LAYERS.items() for module, qualname in targets]
        self.names = ["op", "setup"] + [q.rsplit(".", 1)[-1] for _, _, q in self.targets]
        self.layer_of = [None, None] + [layer for layer, _, _ in self.targets]
        self.fid = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches = []

    # -- recording ------------------------------------------------------------

    def open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fid: int, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "expobs" or name.startswith("expobs."))]
        for fid, (_, module_name, qualname) in enumerate(self.targets, start=2):
            module = importlib.import_module(module_name)
            if "." in qualname:
                self._patch_method(module, qualname, fid)
            else:
                self._patch_function(modules, module, qualname, fid)

    def _patch_function(self, modules, module, name, fid):
        original = getattr(module, name)
        traced = self._wrap(fid, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def _patch_method(self, module, qualname, fid):
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        original = inspect.getattr_static(cls, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(fid, original.__func__))
        else:
            replacement = self._wrap(fid, original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- derivation -----------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer self seconds per op (median over ops), set-up layers per
        set-up repeat (median over repeats), and call counts per op (mean)."""
        n = len(self.fid)
        child = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
            else:
                root[i] = i
        per_root = {}
        calls = {}
        for i in range(n):
            layer = self.layer_of[self.fid[i]]
            r = root[i]
            bucket = per_root.setdefault(r, {})
            if layer is not None:
                own = self.end[i] - self.start[i] - child[i]
                bucket[layer] = bucket.get(layer, 0) + own
                name = self.names[self.fid[i]]
                counts = calls.setdefault(r, {})
                counts[name] = counts.get(name, 0) + 1
        ops = [r for r in per_root if self.fid[r] == OP_ROOT]
        setups = [r for r in per_root if self.fid[r] == SETUP_ROOT]
        out = {}
        for layer in LAYERS:
            out[layer] = _median_s([per_root[r].get(layer, 0) for r in ops])
        for layer in SETUP_LAYERS:
            out[f"setup.{layer}"] = _median_s([per_root[r].get(layer, 0) for r in setups])
        for metric, names in CALL_COUNTS.items():
            total = sum(calls.get(r, {}).get(name, 0) for r in ops for name in names)
            out[metric] = total / len(ops) if ops else 0
        return out


def _median_s(values_ns) -> float:
    return statistics.median(values_ns) / 1e9 if values_ns else 0.0
