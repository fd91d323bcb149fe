"""Independent checks of every output the workloads produce.

Finite systems are checked against the generator's own integer data: orbit
sup-distances come from walking each pair's orbit in integer arithmetic, not
from the program's pair-cycle tables, and every other quantity is derived
from those walks.  Certificates are replayed by iterating the generated PL
map with an interpolation written here; ball counts are recounted from the
points' coordinates.  Only two checks call the program, because they are
about the program: the tampered certificate must be rejected by its
verifier, and the ball candidates are its own enumeration.

Each `check_*` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import floor

from generate import OBS_DEN, l1_matrix

INF_TEXT = "inf"
PERIODIC_LEVELS = (1, 2, 3, 4, 5, 6)


def _fmt(value: Fraction) -> str:
    return str(value)


# --- finite systems ---------------------------------------------------------------


def orbit_sups(metric, perm):
    """D[i][j] = max of metric[a][b] over the orbit of the pair (i, j)."""
    n = len(perm)
    sups = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b, best = i, j, 0
            while True:
                best = max(best, metric[a][b])
                a, b = perm[a], perm[b]
                if (a, b) == (i, j):
                    break
            sups[i][j] = sups[j][i] = best
    return sups


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def min_separated(sups, values):
    """Least D over pairs the values tell apart; None when they are constant."""
    seps = [sups[i][j] for i, j in _pairs(len(values)) if values[i] != values[j]]
    return min(seps) if seps else None


def _osc_sq(values, a, b):
    (ra, ia), (rb, ib) = values[a], values[b]
    return (ra - rb) ** 2 + (ia - ib) ** 2


def sigma_sq(values, perm):
    """Least, over separated pairs, of the largest squared value gap along
    the pair's orbit (in units of 1/OBS_DEN^2); None when constant."""
    best = None
    for i, j in _pairs(len(values)):
        if values[i] == values[j]:
            continue
        a, b, top = i, j, 0
        while True:
            top = max(top, _osc_sq(values, a, b))
            a, b = perm[a], perm[b]
            if (a, b) == (i, j):
                break
        best = top if best is None else min(best, top)
    return best


def blocks(sups, ids, bound):
    """Components of the graph with an edge wherever D <= bound, each listed in
    document order, blocks ordered by their first point."""
    n = len(ids)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in _pairs(n):
            if sups[i][j] <= bound and label[i] != label[j]:
                low = min(label[i], label[j])
                label[i] = label[j] = low
                changed = True
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(ids[i])
    return [groups[k] for k in sorted(groups)]


def fixed_count(perm, k):
    count = 0
    for i in range(len(perm)):
        j = i
        for _ in range(k):
            j = perm[j]
        count += j == i
    return count


def _ext(value, den) -> str:
    return INF_TEXT if value is None else _fmt(Fraction(value, den))


def check_analyze(specs, outputs):
    problems = []
    for spec, text in zip(specs, outputs):
        if text is None:
            continue
        name, truth = spec["name"], spec["truth"]
        report = json.loads(text)
        metric, perm, ids, den = l1_matrix(truth), truth["perm"], truth["ids"], truth["den"]
        sups = orbit_sups(metric, perm)
        distinct = sorted({metric[i][j] for i, j in _pairs(len(ids))})
        expect = {
            "e_star": _fmt(Fraction(min(sups[i][j] for i, j in _pairs(len(ids))), den)),
            "realized_distances": [_fmt(Fraction(t, den)) for t in distinct],
            "omega_map_table": [
                [_fmt(Fraction(t, den)),
                 _fmt(Fraction(max(sups[i][j] for i, j in _pairs(len(ids)) if metric[i][j] <= t), den))]
                for t in distinct
            ],
        }
        for key, value in expect.items():
            if report["system"][key] != value:
                problems.append(f"{name}: {key} {report['system'][key]} != {value}")
        mesh = distinct[0]
        quotient = report["quotients"][0]
        if quotient["threshold"] != _fmt(Fraction(mesh, den)):
            problems.append(f"{name}: quotient threshold is not the mesh")
        if quotient["blocks"] != blocks(sups, ids, mesh):
            problems.append(f"{name}: quotient blocks at the resolution differ")
        for index, values in enumerate(truth["observables"]):
            values = [tuple(v) for v in values]
            entry = report["observables"][index]
            osc_den = OBS_DEN ** 2
            expect = {
                "delta_star": _ext(min_separated(sups, values), den),
                "sigma_star_sq": _ext(sigma_sq(values, perm), osc_den),
                "omega_obs_table": [
                    [_fmt(Fraction(t, den)),
                     _fmt(Fraction(max(_osc_sq(values, i, j) for i, j in _pairs(len(ids))
                                       if metric[i][j] <= t), osc_den))]
                    for t in distinct
                ],
            }
            for key, value in expect.items():
                if entry[key] != value:
                    problems.append(f"{name}: observable {index} {key} differs")
        levels = [level["k"] for level in report["periodic_levels"]]
        if levels != list(PERIODIC_LEVELS):
            problems.append(f"{name}: periodic levels {levels}")
        for level in report["periodic_levels"]:
            if level["fixed_count"] != fixed_count(perm, level["k"]):
                problems.append(f"{name}: fixed_count at k={level['k']} differs")
    return problems


def check_session(data, outputs):
    problems = []
    osc_den = OBS_DEN ** 2
    cache = {}
    for index, (op, text) in enumerate(zip(data["ops"], outputs)):
        if text is None:
            continue
        doc = json.loads(text)
        system = data["systems"][op["system"]]
        src, tgt = system["truth"], system["target_truth"]
        if op["system"] not in cache:
            cache[op["system"]] = (
                orbit_sups(l1_matrix(src), src["perm"]),
                orbit_sups(l1_matrix(tgt), tgt["perm"]),
            )
        src_sups, tgt_sups = cache[op["system"]]
        law = doc["law"]
        if not (law["passed"] and law["violations"] == []
                and law["trials"] == op["trials"] and law["checks"] == 5 * op["trials"]):
            problems.append(f"op {index}: law suite {law['passed']}, "
                            f"{len(law['violations'])} violations, {law['checks']} checks")
        conj = doc["conjugacy"]
        if not conj["isometry"] or conj["violations"]:
            problems.append(f"op {index}: conjugacy is not a clean isometry")
        if any(t != w for t, w in conj["omega_h_table"]):
            problems.append(f"op {index}: an isometry moved a distance")
        for (d_tgt, d_src), values in zip(conj["entries"], op["conj_truth"]):
            want = _ext(min_separated(tgt_sups, [tuple(v) for v in values]), src["den"])
            if not d_tgt == d_src == want:
                problems.append(f"op {index}: conjugate constants {d_tgt}, {d_src} != {want}")
        if len(conj["entries"]) != len(op["conj_truth"]):
            problems.append(f"op {index}: conjugacy report has {len(conj['entries'])} entries")
        for quotient, threshold in zip(doc["quotients"], system["thresholds"]):
            bound = Fraction(threshold) * src["den"]
            if quotient["blocks"] != blocks(src_sups, src["ids"], bound):
                problems.append(f"op {index}: quotient blocks at {threshold} differ")
        fresh = [tuple(v) for v in op["fresh_truth"]]
        if doc["delta_star"] != _ext(min_separated(src_sups, fresh), src["den"]):
            problems.append(f"op {index}: delta_star of the fresh observable differs")
        if doc["sigma_star_sq"] != _ext(sigma_sq(fresh, src["perm"]), osc_den):
            problems.append(f"op {index}: sigma_star_sq of the fresh observable differs")
    return problems


# --- shift points -----------------------------------------------------------------


def _coord(left, core, right, offset, i):
    if i < offset:
        return left[(i - offset) % len(left)]
    if i < offset + len(core):
        return core[i - offset]
    return right[(i - offset - len(core)) % len(right)]


def in_ball(x, y, k, side):
    """x, y as (left, core, right, offset).  Side 's': equal at every i >= -k;
    side 'u': equal at every i <= k.  Past both cores the two sequences are
    periodic with periods |right_x| and |right_y| (|left_*| going left), so
    one joint period beyond the farther core settles the rest of the ray."""
    if side == "s":
        end = max(x[3] + len(x[1]), y[3] + len(y[1]), -k)
        coords = range(-k, end + len(x[2]) * len(y[2]))
    else:
        start = min(x[3], y[3], k + 1)
        coords = range(start - len(x[0]) * len(y[0]), k + 1)
    return all(_coord(*x, i) == _coord(*y, i) for i in coords)


# --- PL maps ------------------------------------------------------------------------


def _interp(xs, ys, x):
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            return ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    raise ValueError(f"{x} outside the chart")


class CircleLift:
    """Degree-one lift given by its values on [0, 1), extended by F(x+1) = F(x)+1."""

    def __init__(self, doc):
        self.xs = [Fraction(b) for b in doc["breakpoints"]] + [Fraction(1)]
        values = [Fraction(v) for v in doc["lift_values"]]
        self.ys = values + [values[0] + 1]

    def __call__(self, x):
        m = floor(x)
        return _interp(self.xs, self.ys, x - m) + m

    def inverse(self, y):
        m = floor(y - self.ys[0])  # F(m) = ys[0] + m <= y < F(m + 1)
        return _interp(self.ys, self.xs, y - m) + m


class IntervalMap:
    def __init__(self, doc):
        self.xs = [Fraction(b) for b in doc["breakpoints"]]
        self.ys = [Fraction(v) for v in doc["values"]]

    def __call__(self, x):
        return _interp(self.xs, self.ys, x)

    def inverse(self, y):
        return _interp(self.ys, self.xs, y)


def orbit(step, count, x):
    out = [x]
    for _ in range(count):
        x = step(x)
        out.append(x)
    return out


def check_trace(cert, forward, backward):
    """Every trace interval equals the probe moved n steps by the map."""
    h = cert["horizon"]
    probe = [Fraction(v) for v in cert["probe"]]
    ends = [(orbit(forward, h, u), orbit(backward, h, u)) for u in probe]
    if [t["n"] for t in cert["trace"]] != list(range(-h, h + 1)):
        return ["trace does not run over -horizon..horizon"]
    for entry in cert["trace"]:
        n = entry["n"]
        want = [fwd[n] if n >= 0 else bwd[-n] for fwd, bwd in ends]
        if [Fraction(entry["lo"]), Fraction(entry["hi"])] != want:
            return [f"trace interval at n={n} differs from the iterated map"]
    return []


def tampered(cert_doc):
    """The certificate with its last trace interval widened a little."""
    doc = json.loads(json.dumps(cert_doc))
    entry = doc["trace"][-1]
    entry["hi"] = _fmt(Fraction(entry["hi"]) + Fraction(1, 10 ** 9))
    return doc


def check_symbolic(specs, outputs, candidates, verify):
    """`candidates`: the program's enumeration as (left, core, right, offset)
    tuples; `verify(doc)`: the program's verdict (True = accepted) on a
    certificate document."""
    problems = []
    if len(set(candidates)) != len(candidates):
        problems.append("enumeration repeats a point")
    for index, (spec, text) in enumerate(zip(specs, outputs)):
        if text is None:
            continue
        doc = json.loads(text)
        ball, k, side = doc["ball"], spec["k"], spec["side"]
        point = spec["point"]
        x = (point["left"], point["core"], point["right"], point["offset"])
        if ball["counterexamples"]:
            problems.append(f"op {index}: {len(ball['counterexamples'])} counterexamples")
        if ball["k"] != k or Fraction(ball["effective_epsilon"]) != Fraction(1, 2 ** k):
            problems.append(f"op {index}: radius snapped to 2^-{ball['k']}, expected 2^-{k}")
        if ball["points_enumerated"] != len(candidates):
            problems.append(f"op {index}: {ball['points_enumerated']} points enumerated")
        count = sum(in_ball(x, y, k, side) for y in candidates)
        if ball["points_in_ball"] != count:
            problems.append(f"op {index}: {ball['points_in_ball']} points in ball, recount {count}")

        p, q = spec["rotation"]
        lift = CircleLift(spec["circle"])
        cert = doc["circle"]["certificate"]

        def g(x, lift=lift, p=p, q=q):
            for _ in range(q):
                x = lift(x)
            return x - p

        def g_inv(y, lift=lift, p=p, q=q):
            y = y + p
            for _ in range(q):
                y = lift.inverse(y)
            return y

        interval = IntervalMap(spec["interval"])
        icert = doc["interval"]["certificate"]
        cut = Fraction(spec["interval"]["breakpoints"][2])  # the interior fixed point
        cases = (
            ("circle", cert, (p, q), [0, Fraction(1, q)], g, g_inv),
            ("interval", icert, (0, 1), [0, cut], interval, interval.inverse),
        )
        for label, c, rotation, arc, forward, backward in cases:
            if doc[label]["violations"]:
                problems.append(f"op {index}: {label} certificate failed replay")
            if (c["p"], c["q"]) != rotation:
                problems.append(f"op {index}: {label} rotation {c['p']}/{c['q']} != {rotation}")
            if [Fraction(v) for v in c["arc"]] != arc:
                problems.append(f"op {index}: {label} arc {c['arc']} != {arc}")
            problems += [f"op {index}: {label} {m}" for m in check_trace(c, forward, backward)]
            if verify(tampered(c)):
                problems.append(f"op {index}: tampered {label} certificate was accepted")
    return problems
