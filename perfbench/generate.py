"""Seeded inputs for the benchmark workloads.

Every input is built here from integers with `random.Random(seed)`; nothing
comes from `expobs.sampling` or `expobs.library`, so a rewrite of the
program's own random generators cannot change what the benchmark measures.

Each workload's inputs are one "round": a fixed list of operation specs whose
make-up (sizes, cycle types, numbers of distinct distances, radii, rotation
denominators) is the same for every op and every seed, so every op costs about
the same and the latency percentiles measure the program, not the mix.  The
seed picks the particular points, values, labels and map parameters.

Alongside the JSON documents the program reads, every spec keeps the
generator's own integer data ("truth"), which the checks in `oracle.py` use.

Run as a script to write the documents of one workload to a directory:

    python3 perfbench/generate.py --workload analyze-stream --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("analyze-stream", "query-session", "symbolic-certify")

# analyze-stream: one fresh system per op.
ANALYZE_ROUND = 10
ANALYZE_CYCLES = (1, 2, 2, 3, 3, 4, 4, 5)  # n = 24
ANALYZE_BOX = 13
ANALYZE_DISTINCT = 21  # distinct L1 distances; omega tables cost T * n^2
METRIC_DEN = 4  # d(x, y) = L1(x, y) / METRIC_DEN

# query-session: a few larger systems, each with a relabelled conjugate.
SESSION_SYSTEMS = 3
SESSION_ROUND = 6
SESSION_CYCLES = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6)  # n = 36
SESSION_BOX = 16
SESSION_DISTINCT = 27
SESSION_TRIALS = 4
SESSION_CONJ_OBSERVABLES = 4
SESSION_THRESHOLD_RANKS = (1, 4, 9)  # ranks among the distinct distances

# Observable values are Gaussian rationals over OBS_DEN; a small palette
# makes level sets collide, which is what delta-star acts on.
OBS_DEN = 2
OBS_PALETTE = ((0, 0), (2, 0), (0, 2), (1, 1))

# symbolic-certify: one round is every (side, window) pair twice.  The radius
# always snaps to 2^-SYMBOLIC_K and every circle map has rotation number p/4,
# because the ball check's cost grows with k and the certificate's with q.
SYMBOLIC_ALPHABET = "01"
SYMBOLIC_BOUND = 9
SYMBOLIC_K = 3
SYMBOLIC_Q = 4
SYMBOLIC_SCHEDULE = (("s", 1), ("u", 2), ("s", 2), ("u", 1)) * 2
CYLINDER_PALETTE = (("0", "0"), ("1", "0"), ("0", "1"))
CIRCLE_DELTA_DIV = 16  # circle certificates at delta = 1/(16q)
INTERVAL_DELTA = Fraction(1, 32)
# Small bumps peaking late make the probe drift slowly, so certificates
# carry a trace of several steps instead of one.
BUMP_PEAK = Fraction(3, 4)
BUMP_HEIGHTS = (Fraction(1, 8), Fraction(1, 10))


def _frac(value) -> str:
    return str(Fraction(value))


# --- finite systems ------------------------------------------------------------


def _l1(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _grid_points(rng, n, box, distinct):
    """n distinct lattice points of a box whose L1 distances take exactly
    `distinct` values (resampled until they do; about one draw in four)."""
    cells = [(x, y) for x in range(box) for y in range(box)]
    while True:
        coords = rng.sample(cells, n)
        values = {_l1(a, b) for i, a in enumerate(coords) for b in coords[i + 1:]}
        if len(values) == distinct:
            return coords


def _permutation(rng, n, cycle_lengths):
    """Index permutation with exactly the given cycle lengths."""
    order = list(range(n))
    rng.shuffle(order)
    perm = [0] * n
    pos = 0
    for length in cycle_lengths:
        cycle = order[pos:pos + length]
        for k, i in enumerate(cycle):
            perm[i] = cycle[(k + 1) % length]
        pos += length
    return perm


def _observable_values(rng, n):
    return [OBS_PALETTE[rng.randrange(len(OBS_PALETTE))] for _ in range(n)]


def _finite_truth(rng, prefix, cycles, box, distinct):
    n = sum(cycles)
    return {
        "ids": [f"{prefix}{i}" for i in range(n)],
        "coords": _grid_points(rng, n, box, distinct),
        "den": METRIC_DEN,
        "perm": _permutation(rng, n, cycles),
    }


def l1_matrix(truth):
    coords = truth["coords"]
    return [[_l1(a, b) for b in coords] for a in coords]


def system_document(truth) -> dict:
    ids, den, perm = truth["ids"], truth["den"], truth["perm"]
    return {
        "points": list(ids),
        "metric": [[_frac(Fraction(v, den)) for v in row] for row in l1_matrix(truth)],
        "map": {ids[i]: ids[perm[i]] for i in range(len(ids))},
    }


def observable_document(ids, values) -> dict:
    return {
        "values": {
            p: [_frac(Fraction(re, OBS_DEN)), _frac(Fraction(im, OBS_DEN))]
            for p, (re, im) in zip(ids, values)
        }
    }


def relabel(rng, truth, prefix):
    """An isometric conjugate: the same space and map under new labels in a
    shuffled document order.  Returns (target truth, {source id: target id})."""
    n = len(truth["ids"])
    slots = list(range(n))
    rng.shuffle(slots)  # source index i sits at target index slots[i]
    inv = [0] * n
    for i, j in enumerate(slots):
        inv[j] = i
    target = {
        "ids": [f"{prefix}{j}" for j in range(n)],
        "coords": [truth["coords"][inv[j]] for j in range(n)],
        "den": truth["den"],
        "perm": [slots[truth["perm"][inv[j]]] for j in range(n)],
    }
    mapping = {truth["ids"][i]: target["ids"][slots[i]] for i in range(n)}
    return target, mapping


def analyze_round(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    for op in range(ANALYZE_ROUND):
        truth = _finite_truth(rng, "p", ANALYZE_CYCLES, ANALYZE_BOX, ANALYZE_DISTINCT)
        n = len(truth["ids"])
        truth["observables"] = [_observable_values(rng, n) for _ in range(2)]
        specs.append({
            "name": f"system{op:02d}",
            "truth": truth,
            "system": system_document(truth),
            "observables": [observable_document(truth["ids"], v) for v in truth["observables"]],
        })
    return specs


def session_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    systems = []
    for s in range(SESSION_SYSTEMS):
        truth = _finite_truth(rng, f"s{s}_", SESSION_CYCLES, SESSION_BOX, SESSION_DISTINCT)
        target, mapping = relabel(rng, truth, f"t{s}_")
        distinct = sorted({v for row in l1_matrix(truth) for v in row if v})
        thresholds = [Fraction(distinct[r], truth["den"]) for r in SESSION_THRESHOLD_RANKS]
        systems.append({
            "truth": truth,
            "target_truth": target,
            "system": system_document(truth),
            "target": system_document(target),
            "conjugacy": mapping,
            "thresholds": [_frac(t) for t in thresholds],
        })
    ops = []
    for op in range(SESSION_ROUND):
        s = op % SESSION_SYSTEMS
        src, tgt = systems[s]["truth"], systems[s]["target_truth"]
        n = len(src["ids"])
        conj_values = [_observable_values(rng, n) for _ in range(SESSION_CONJ_OBSERVABLES)]
        fresh = _observable_values(rng, n)
        ops.append({
            "system": s,
            "law_seed": rng.randrange(2 ** 31),
            "trials": SESSION_TRIALS,
            "conj_truth": conj_values,
            "conj_observables": [observable_document(tgt["ids"], v) for v in conj_values],
            "fresh_truth": fresh,
            "fresh_observable": observable_document(src["ids"], fresh),
        })
    return {"systems": systems, "ops": ops}


# --- symbolic points and PL maps ------------------------------------------------------


def _word(rng, lo, hi):
    return "".join(rng.choice(SYMBOLIC_ALPHABET) for _ in range(rng.randint(lo, hi)))


def _epsilon(rng, k) -> Fraction:
    """A radius in [2^-k, 2^-(k-1)) that is not a power of two when k > 0,
    so the program has to snap it down to 2^-k."""
    lo = Fraction(1, 2 ** k)
    return lo + lo * Fraction(rng.randint(1, 7), 8)


def circle_map(rng, p, q):
    """R_{p/q} composed with a 1/q-periodic tent bump B(x) = x + b(x).

    b vanishes exactly at the multiples of 1/q and B keeps each
    [j/q, (j+1)/q] inside itself, so F^q - p = B^q fixes exactly those
    points: the rotation number is p/q and every arc between them wanders.
    """
    peak = BUMP_PEAK
    height = (1 - peak) * rng.choice(BUMP_HEIGHTS)
    cell = Fraction(1, q)
    breakpoints, lift = [], []
    for j in range(q):
        for x, bump in ((j * cell, 0), (j * cell + peak * cell, height * cell)):
            breakpoints.append(x)
            lift.append(x + bump + Fraction(p, q))
    return {"breakpoints": [_frac(b) for b in breakpoints],
            "lift_values": [_frac(v) for v in lift]}


def interval_map(rng):
    """Increasing PL map of [0, 1] fixing exactly 0, c and 1, pushing points
    of (0, c) and (c, 1) to the right."""
    c = Fraction(rng.choice((3, 4, 5)), 8)
    nodes = [Fraction(0)]
    values = [Fraction(0)]
    for lo, hi in ((Fraction(0), c), (c, Fraction(1))):
        x = lo + (hi - lo) * BUMP_PEAK
        nodes += [x, hi]
        values += [x + (hi - x) * rng.choice(BUMP_HEIGHTS), hi]
    return {"breakpoints": [_frac(b) for b in nodes], "values": [_frac(v) for v in values]}


def symbolic_round(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    k, q = SYMBOLIC_K, SYMBOLIC_Q
    for side, window in SYMBOLIC_SCHEDULE:
        point = {"left": _word(rng, 1, 2), "core": _word(rng, 0, 3),
                 "right": _word(rng, 1, 2), "offset": rng.randint(-2, 2)}
        width = 2 * window + 1
        words = [format(i, f"0{width}b") for i in range(2 ** width)]
        table = {w: list(CYLINDER_PALETTE[rng.randrange(len(CYLINDER_PALETTE))]) for w in words}
        p = rng.choice([p for p in range(q) if gcd(p, q) == 1])
        specs.append({
            "point": point,
            "observable": {"window": window, "alphabet": list(SYMBOLIC_ALPHABET), "table": table},
            "epsilon": _frac(_epsilon(rng, k)),
            "k": k,
            "side": side,
            "bound": SYMBOLIC_BOUND,
            "circle": circle_map(rng, p, q),
            "rotation": [p, q],
            "circle_delta": _frac(Fraction(1, CIRCLE_DELTA_DIV * q)),
            "interval": interval_map(rng),
            "interval_delta": _frac(INTERVAL_DELTA),
        })
    return specs


def generate(workload: str, seed: int):
    if workload == "analyze-stream":
        return analyze_round(seed)
    if workload == "query-session":
        return session_inputs(seed)
    if workload == "symbolic-certify":
        return symbolic_round(seed)
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, out: str) -> str:
    """Write the workload's inputs as one JSON file in `out`; returns its path.

    analyze-stream also gets one file per system and observable, because its
    operations hand file paths to the command line."""
    os.makedirs(out, exist_ok=True)
    data = generate(workload, seed)
    if workload == "analyze-stream":
        for spec in data:
            paths = {"system": os.path.join(out, f"{spec['name']}.json")}
            with open(paths["system"], "w", encoding="utf-8") as fh:
                json.dump(spec["system"], fh)
            paths["observables"] = []
            for i, doc in enumerate(spec["observables"]):
                path = os.path.join(out, f"{spec['name']}_obs{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                paths["observables"].append(path)
            paths["report"] = os.path.join(out, f"{spec['name']}_report.json")
            spec["paths"] = paths
    path = os.path.join(out, "inputs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "data": data}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
