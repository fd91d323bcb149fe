"""Piecewise-linear circle and interval dynamics with exact certificates.

Circle maps are handled through degree-one lifts F with F(x+1) = F(x) + 1,
represented by rational breakpoints in [0, 1) and their lift values.  All
root finding is per linear piece, so rotation numbers, periodic sets and
wandering intervals come out exact.  A certificate pins down a probe interval
whose iterates stay below a requested diameter for every integer time: the
finite trace covers |n| <= N and an affine contraction span at both ends
guarantees the infinite tails.

A PL function's affine pieces are derived from its node lists in one place,
`_pieces`: y = slopes[i] * x + offsets[i] on [xs[i], xs[i + 1]].  A lift
caches that table once over its nodes closed by (1, F(0) + 1), and every
reader takes its pieces from there: F and its inverse by a bisection on the
nodes or on the values, affine spans by the piece holding the span's start,
periodic points by solving each piece.  Certification composes the power
F^q once; replay never composes, it iterates F q times (`IteratedPower`).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (
    AllFixed,
    HorizonExceeded,
    InconsistentRotationNumber,
    InvariantViolation,
    InvalidDocument,
    NoPeriodicOrbit,
    NotRigid,
    NoWanderingInterval,
)
from .exact import format_rational, parse_rational
from .library import rotation_grid
from .model import _as_dict, _rational_list
from .relations import (
    chain_components,
    e_star,
    indistinguishability_quotient,
    omega_map_table,
)
from .model import mesh as system_mesh

CIRCLE_DIAM_CAP = Fraction(1, 2)
INTERVAL_DIAM_CAP = Fraction(1)
DEFAULT_Q_MAX = 64
DEFAULT_N_MAX = 100_000
_MAX_HALVINGS = 512


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _pieces(xs, ys):
    """(slopes, offsets) of the PL function through the nodes (xs[i], ys[i]),
    xs strictly increasing: y = slopes[i] * x + offsets[i] on [xs[i], xs[i + 1]]."""
    slopes = tuple((y2 - y1) / (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:]))
    return slopes, tuple(y - s * x for x, y, s in zip(xs, ys, slopes))


# --- circle lifts -------------------------------------------------------------


@dataclass(frozen=True)
class PLCircleMap:
    """Degree-one lift of an increasing PL circle homeomorphism."""

    breakpoints: tuple
    values: tuple

    @classmethod
    def build(cls, breakpoints, values) -> "PLCircleMap":
        bs = tuple(b if type(b) is Fraction else Fraction(b) for b in breakpoints)
        vs = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(bs) != len(vs) or not bs:
            raise InvalidDocument("breakpoints and lift values must pair up")
        if bs[0] != 0:
            raise InvalidDocument("breakpoints must start at 0")
        if any(not 0 <= b < 1 for b in bs):
            raise InvalidDocument("breakpoints must lie in [0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise InvalidDocument("breakpoints must be strictly increasing")
        if any(v2 <= v1 for v1, v2 in zip(vs, vs[1:])) or vs[-1] >= vs[0] + 1:
            raise InvalidDocument("lift values must increase strictly with slope > 0")
        return cls(bs, vs)

    @cached_property
    def segments(self):
        """(xs, ys, slopes, offsets): the breakpoints and lift values closed by
        (1, F(0) + 1), and the `_pieces` table over them."""
        xs = self.breakpoints + (Fraction(1),)
        ys = self.values + (self.values[0] + 1,)
        return (xs, ys, *_pieces(xs, ys))

    def eval_lift(self, x: Fraction) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        n = _floor(x)
        r = x - n if n else x
        xs, _, slopes, offsets = self.segments
        i = bisect_right(xs, r) - 1
        y = slopes[i] * r + offsets[i]
        return y + n if n else y

    def inverse_lift(self, y: Fraction) -> Fraction:
        if type(y) is not Fraction:
            y = Fraction(y)
        _, ys, slopes, offsets = self.segments
        k = _floor(y - ys[0])   # y - k lies in [F(0), F(0) + 1)
        yr = y - k if k else y
        i = bisect_right(ys, yr) - 1
        x = (yr - offsets[i]) / slopes[i]
        return x + k if k else x

    def affine_span_slope(self, lo: Fraction, hi: Fraction):
        """Slope of the map on [lo, hi] if it is affine there, else None.

        Affine means no lift node strictly inside (lo, hi).  The first node
        after lo is the right end xs[i + 1] + n of the piece holding lo, as
        xs closes with 1 = 0 + 1.
        """
        if hi < lo:
            lo, hi = hi, lo
        if lo == hi:
            return None
        n = _floor(lo)
        xs, _, slopes, _ = self.segments
        i = bisect_right(xs, lo - n) - 1
        return slopes[i] if hi - n <= xs[i + 1] else None


def compose_circle(outer: PLCircleMap, inner: PLCircleMap) -> PLCircleMap:
    """The lift of outer о inner, with exact pulled-back breakpoints.

    Its nodes are inner's breakpoints a_i and the pulled-back outer
    breakpoints.  At a_i, inner's value is read from `inner.values` and only
    outer is interpolated there.  A pulled-back node is x - n with
    inner(x) = b_j and n = floor(x), so only inner's inverse is interpolated;
    its value outer(b_j - n) = outer.values[j] - n is read.  Where both kinds
    of node coincide the two values are equal.
    """
    nodes = {a: outer.eval_lift(v) for a, v in zip(inner.breakpoints, inner.values)}
    for b, v in zip(outer.breakpoints, outer.values):
        x = inner.inverse_lift(b)
        n = _floor(x)
        nodes[x - n] = v - n
    bs = sorted(nodes)
    return PLCircleMap.build(bs, [nodes[b] for b in bs])


def circle_power(base: PLCircleMap, q: int) -> PLCircleMap:
    if q < 1:
        raise ValueError("power needs q >= 1")
    acc = base
    for _ in range(q - 1):
        acc = compose_circle(base, acc)
    return acc


def shift_values(mapping: PLCircleMap, p: int) -> PLCircleMap:
    return PLCircleMap(mapping.breakpoints, tuple(v - p for v in mapping.values))


class IteratedPower:
    """F^q - p by iterating the base lift F q times: the values and affine
    spans of `shift_values(circle_power(base, q), p)`, with no composition.
    `compose_circle` keeps every pulled-back node, so F^q is affine on
    [lo, hi] exactly when F is affine on each F^i([lo, hi]), i < q, and its
    slope there is the product of theirs."""

    def __init__(self, base: PLCircleMap, q: int, p: int):
        if q < 1:
            raise ValueError("power needs q >= 1")
        self.base, self.q, self.p = base, q, p

    def eval_lift(self, x: Fraction) -> Fraction:
        step = self.base.eval_lift
        for _ in range(self.q):
            x = step(x)
        return x - self.p

    def inverse_lift(self, y: Fraction) -> Fraction:
        y += self.p
        step = self.base.inverse_lift
        for _ in range(self.q):
            y = step(y)
        return y

    def affine_span_slope(self, lo: Fraction, hi: Fraction):
        base, product = self.base, 1
        for _ in range(self.q):
            slope = base.affine_span_slope(lo, hi)
            if slope is None:
                return None
            product *= slope
            lo, hi = base.eval_lift(lo), base.eval_lift(hi)
        return product


def parse_circle_map(document) -> PLCircleMap:
    doc = _as_dict(document)
    for key in ("breakpoints", "lift_values"):
        if key not in doc:
            raise InvalidDocument(f"circle map document lacks {key!r}")
    return PLCircleMap.build(
        _rational_list(doc, "breakpoints"), _rational_list(doc, "lift_values")
    )


def serialize_circle_map(mapping: PLCircleMap) -> dict:
    return {
        "breakpoints": [format_rational(b) for b in mapping.breakpoints],
        "lift_values": [format_rational(v) for v in mapping.values],
    }


# --- rotation numbers and periodic sets ---------------------------------------


def rotation_number(mapping: PLCircleMap, q_max: int = DEFAULT_Q_MAX):
    """Exact rotation number p/q when a periodic orbit of period <= q_max
    exists, else None.  The displacement of a lift power spans less than 1,
    so at most one integer p can be crossed at each q; the first hit is the
    reduced fraction.
    """
    return _rotation(mapping, q_max)[0]


def _rotation(mapping: PLCircleMap, q_max: int):
    """(p/q, F^q) as found by `rotation_number`, or (None, None)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    power = mapping
    for q in range(1, q_max + 1):
        disp = [v - b for b, v in zip(power.breakpoints, power.values)]
        lo, hi = min(disp), max(disp)
        p_lo = -((-lo.numerator) // lo.denominator)  # ceil(lo)
        if p_lo <= hi:
            if gcd(p_lo, q) != 1:
                raise InvariantViolation(
                    f"rotation number {p_lo}/{q} is not reduced: "
                    "an earlier q would have produced this orbit"
                )
            return Fraction(p_lo, q), power
        if q < q_max:
            power = compose_circle(mapping, power)
    return None, None


def periodic_points(mapping: PLCircleMap, p: int, q: int):
    """Solution set of F^q(x) = x + p in [0, 1), as merged closed blocks.

    Returns (blocks, full): blocks are (lo, hi) in lift coordinates with
    lo in [0, 1) and hi <= lo + 1 (a block with hi > 1 wraps through 0);
    full means the whole circle is periodic.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return _periodic_blocks(circle_power(mapping, q), p, q)


def _periodic_blocks(power: PLCircleMap, p: int, q: int):
    """`periodic_points` with the lift power F^q already composed."""
    xs, _, slopes, offsets = power.segments
    pieces = []
    for x1, x2, slope, offset in zip(xs, xs[1:], slopes, offsets):
        if slope == 1:
            if offset == p:
                pieces.append([x1, x2])
        else:
            root = (p - offset) / (slope - 1)
            if x1 <= root <= x2 and root < 1:
                pieces.append([root, root])
    if not pieces:
        raise InconsistentRotationNumber(f"no solutions of F^{q}(x) = x + {p}")
    pieces.sort(key=lambda piece: piece[0])
    merged = [pieces[0]]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    full = False
    if merged[0][0] == 0 and merged[-1][1] == 1:
        if len(merged) == 1:
            full = True
        else:
            first = merged.pop(0)
            merged[-1][1] = first[1] + 1
    blocks = tuple((lo, hi) for lo, hi in merged)
    return blocks, full


def _complement_arcs(blocks, full: bool):
    """Open arcs of the circle between consecutive fixed blocks, in lift
    coordinates (a, b) with a in [0, 1) and a < b <= a + 1."""
    if full:
        return ()
    arcs = []
    m = len(blocks)
    for i in range(m):
        a = blocks[i][1]
        b = blocks[(i + 1) % m][0] + (1 if i == m - 1 else 0)
        if a >= 1:
            a, b = a - 1, b - 1
        if not a < b:
            raise InvariantViolation(f"merged periodic blocks touch at {a}")
        arcs.append((a, b))
    arcs.sort(key=lambda arc: arc[0])
    return tuple(arcs)


@dataclass(frozen=True)
class WanderingReport:
    arcs: tuple
    q: int
    p: int


def wandering_intervals(mapping: PLCircleMap, q_max: int = DEFAULT_Q_MAX) -> WanderingReport:
    """Complement of the periodic set of the reduced power g = F^q - p.

    Every complementary arc is wandering for g: its points drift from the
    repelling end to the attracting end, never to return.
    """
    return reduced_power(mapping, q_max)[1]


def reduced_power(mapping: PLCircleMap, q_max: int = DEFAULT_Q_MAX):
    """(g, report) where g = F^q - p has the wandering arcs as its fixed-free
    region and fixes every arc endpoint.  F^q is the power the rotation
    number search ended on, so it is composed once."""
    rho, power = _rotation(mapping, q_max)
    if rho is None:
        raise NoPeriodicOrbit(f"no periodic orbit with period <= {q_max}")
    p, q = rho.numerator, rho.denominator
    blocks, full = _periodic_blocks(power, p, q)
    report = WanderingReport(arcs=_complement_arcs(blocks, full), q=q, p=p)
    return shift_values(power, p), report


# --- wandering interval certificates ------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence that one interval has uniformly small orbit images.

    trace covers |n| <= horizon with exact interval endpoints; in mode
    'contracting' the tail spans certify an affine contraction beside the
    adjacent fixed points, making diam(g^n U) <= delta for every |n| > horizon;
    in mode 'cap' delta is at least the diameter of the whole space and the
    bound is unconditional.
    """

    space: str            # "circle" | "interval"
    map_document: dict
    map_id: str
    delta: Fraction
    q: int
    p: int
    arc: tuple
    probe: tuple
    horizon: int
    direction: int        # +1 drift toward the right arc end, -1 toward the left
    mode: str             # "contracting" | "cap"
    trace: tuple          # ((n, lo, hi), ...) for n = -horizon .. horizon
    tail: dict            # {"forward": {"span": (lo, hi), "slope": s}, "backward": ...}


def map_identifier(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]


def _diam(space: str, lo: Fraction, hi: Fraction) -> Fraction:
    length = hi - lo
    if space == "circle":
        return min(length, CIRCLE_DIAM_CAP)
    return length


def _drift_direction(g, arc) -> int:
    a, b = arc
    midpoint = (a + b) / 2
    image = g.eval_lift(midpoint)
    if image == midpoint:
        raise InvariantViolation(f"arc interior point {midpoint} is fixed")
    return 1 if image > midpoint else -1


def _tail_reached(g, lo, hi, target, delta) -> bool:
    """True when [lo, hi] sits in one affine piece together with the adjacent
    fixed point `target` and is already no longer than delta."""
    if hi - lo > delta:
        return False
    span = (min(lo, target), max(hi, target))
    slope = g.affine_span_slope(*span)
    return slope is not None


def _endpoint_orbit(step, u1, u2, count):
    out = [(u1, u2)]
    lo, hi = u1, u2
    for _ in range(count):
        lo, hi = step(lo), step(hi)
        out.append((lo, hi))
    return out


def _certify_core(g, space: str, arcs, q: int, p: int, delta: Fraction,
                  n_max: int, map_doc: dict) -> Certificate:
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not arcs:
        raise NoWanderingInterval("the fixed set leaves no complementary interval")
    arc = arcs[0]
    a, b = arc
    direction = _drift_direction(g, arc)
    att = b if direction > 0 else a
    rep = a if direction > 0 else b
    cap = CIRCLE_DIAM_CAP if space == "circle" else INTERVAL_DIAM_CAP
    third = (b - a) / 3
    u1, u2 = a + third, b - third
    if delta >= cap:
        return Certificate(
            space=space, map_document=map_doc, map_id=map_identifier(map_doc),
            delta=delta, q=q, p=p, arc=arc, probe=(u1, u2), horizon=0,
            direction=direction, mode="cap",
            trace=((0, u1, u2),), tail={},
        )
    for _ in range(_MAX_HALVINGS):
        result = _attempt(g, space, arc, att, rep, u1, u2, delta, n_max)
        if result is not None:
            trace, horizon, tail = result
            return Certificate(
                space=space, map_document=map_doc, map_id=map_identifier(map_doc),
                delta=delta, q=q, p=p, arc=arc, probe=(u1, u2), horizon=horizon,
                direction=direction, mode="contracting", trace=trace, tail=tail,
            )
        center = (u1 + u2) / 2
        quarter = (u2 - u1) / 4
        u1, u2 = center - quarter, center + quarter
    raise HorizonExceeded("could not certify within the halving budget")


def _attempt(g, space, arc, att, rep, u1, u2, delta, n_max):
    if _diam(space, u1, u2) > delta:
        return None
    # Pairwise disjointness of the full iterate family reduces to one step:
    # g is monotone, so g(U) beyond U propagates to every consecutive pair.
    if att > rep:
        if g.eval_lift(u1) <= u2:
            return None
    elif g.eval_lift(u2) >= u1:
        return None
    fwd = _walk_to_tail(g, g.eval_lift, u1, u2, att, delta, n_max, "forward")
    bwd = _walk_to_tail(g, g.inverse_lift, u1, u2, rep, delta, n_max, "backward")
    horizon = max(len(fwd), len(bwd)) - 1
    fwd += _endpoint_orbit(g.eval_lift, *fwd[-1], horizon + 1 - len(fwd))[1:]
    bwd += _endpoint_orbit(g.inverse_lift, *bwd[-1], horizon + 1 - len(bwd))[1:]
    if any(_diam(space, lo, hi) > delta for lo, hi in fwd + bwd):
        return None
    tail = {}
    for label, orbit, fixed in (("forward", fwd, att), ("backward", bwd, rep)):
        lo, hi = orbit[-1]
        span = (min(lo, fixed), max(hi, fixed))
        tail[label] = {"span": span, "slope": g.affine_span_slope(*span)}
    trace = tuple(
        (n, lo, hi)
        for n, (lo, hi) in enumerate(list(reversed(bwd[1:])) + fwd, start=-horizon)
    )
    return trace, horizon, tail


def _walk_to_tail(g, step, lo, hi, fixed, delta, n_max, label):
    """Iterates of [lo, hi] under step, up to the first one that reaches the
    affine tail beside `fixed` (see `_tail_reached`)."""
    orbit = [(lo, hi)]
    while not _tail_reached(g, lo, hi, fixed, delta):
        if len(orbit) > n_max:
            raise HorizonExceeded(f"{label} orbit exceeded n_max = {n_max}")
        lo, hi = step(lo), step(hi)
        orbit.append((lo, hi))
    return orbit


def certify(mapping: PLCircleMap, delta: Fraction, q_max: int = DEFAULT_Q_MAX,
            n_max: int = DEFAULT_N_MAX) -> Certificate:
    """Certificate that the first wandering arc contains an interval whose
    images under the reduced power stay below delta in diameter, forever."""
    g, report = reduced_power(mapping, q_max)
    return _certify_core(
        g, "circle", report.arcs, report.q, report.p, delta, n_max,
        serialize_circle_map(mapping),
    )


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_certificate(cert: Certificate, delta: Fraction = None,
                       q_max: int = DEFAULT_Q_MAX) -> VerificationReport:
    """Replay a certificate from its embedded map document.

    Recomputes the reduced power, re-walks the probe orbit, and re-checks
    every inequality; any exact mismatch or failed bound becomes a violation.
    A larger delta may be supplied: a certificate for delta also certifies
    every delta' >= delta.  A circle certificate replays its reduced power
    as `IteratedPower`, q base steps per endpoint and no composition, so q
    above q_max (the bound `certify` searched under) raises HorizonExceeded
    before any step.
    """
    delta = cert.delta if delta is None else Fraction(delta)
    violations = []
    if delta < cert.delta:
        violations.append("override delta is smaller than the certified delta")
    try:
        if cert.space == "circle":
            if cert.q > q_max:
                raise HorizonExceeded(f"certificate q = {cert.q} exceeds q_max = {q_max}")
            g = IteratedPower(parse_circle_map(cert.map_document), cert.q, cert.p)
            cap = CIRCLE_DIAM_CAP
        else:
            # Parsing already reduces a decreasing document to its square,
            # so the parsed map replays directly; q records the reduction.
            g, power = parse_interval_map(cert.map_document)
            cap = INTERVAL_DIAM_CAP
            if power != cert.q:
                violations.append(
                    f"power annotation {cert.q} does not match the document ({power})"
                )
    except InvalidDocument as exc:
        return VerificationReport((f"embedded map does not parse: {exc}",))
    if cert.map_id != map_identifier(cert.map_document):
        violations.append("map identifier does not match the embedded document")
    a, b = cert.arc
    for endpoint in (a, b):
        if g.eval_lift(endpoint) != endpoint:
            violations.append(f"arc endpoint {endpoint} is not fixed by the reduced power")
    u1, u2 = cert.probe
    if not (a < u1 < u2 < b):
        violations.append("probe interval is not strictly inside the arc")
    # The trace fixes the replay length: a horizon it does not back is
    # rejected before anything of that size is built.
    expected = {n: (lo, hi) for n, lo, hi in cert.trace}
    if len(expected) != 2 * cert.horizon + 1 or any(
        not -cert.horizon <= n <= cert.horizon for n in expected
    ):
        violations.append("trace does not cover -N..N")
        return VerificationReport(tuple(violations))
    if expected[0] != (u1, u2):
        violations.append("trace at n=0 is not the probe interval")
    for sign, step in ((1, g.eval_lift), (-1, g.inverse_lift)):
        lo, hi = u1, u2
        for n in range(sign, sign * (cert.horizon + 1), sign):
            lo, hi = step(lo), step(hi)
            if expected[n] != (lo, hi):
                violations.append(f"trace mismatch at n={n}: recomputed ({lo}, {hi})")
                break
    for n, lo_n, hi_n in cert.trace:
        if lo_n >= hi_n:
            violations.append(f"degenerate interval at n={n}")
        if _diam(cert.space, lo_n, hi_n) > delta:
            violations.append(
                f"diameter at n={n} is {_diam(cert.space, lo_n, hi_n)} > {delta}"
            )
    ordered = sorted(cert.trace, key=lambda entry: entry[0])
    for _n, lo_n, hi_n in ordered:
        if not (a <= lo_n and hi_n <= b):
            violations.append(f"trace interval at n={_n} leaves the arc")
    for (n1, lo1, hi1), (_n2, lo2, hi2) in zip(ordered, ordered[1:]):
        if not (hi1 < lo2 or hi2 < lo1):
            violations.append(f"iterates at n={n1} and n={n1 + 1} overlap")
        drift_ok = lo1 < lo2 and hi1 < hi2 if cert.direction > 0 else (
            lo1 > lo2 and hi1 > hi2
        )
        if not drift_ok:
            violations.append(
                f"endpoints do not drift monotonically between n={n1} and n={n1 + 1}"
            )
    if cert.mode == "cap":
        if delta < cap:
            violations.append("cap mode needs delta >= the diameter of the space")
    elif cert.mode == "contracting":
        att = b if cert.direction > 0 else a
        rep = a if cert.direction > 0 else b
        last_fwd = expected[cert.horizon]
        last_bwd = expected[-cert.horizon]
        violations.extend(
            _check_tail(g, "forward", cert.tail.get("forward"), last_fwd, att, delta, contracting=True)
        )
        violations.extend(
            _check_tail(g, "backward", cert.tail.get("backward"), last_bwd, rep, delta, contracting=False)
        )
    else:
        violations.append(f"unknown certificate mode {cert.mode!r}")
    return VerificationReport(tuple(violations))


def _check_tail(g, label, tail, last, fixed_point, delta, contracting: bool):
    out = []
    if tail is None:
        return [f"{label} tail data missing"]
    span = tail["span"]
    slope = g.affine_span_slope(span[0], span[1])
    if slope is None:
        out.append(f"{label} tail span is not affine")
        return out
    if slope != tail["slope"]:
        out.append(f"{label} tail slope mismatch: recomputed {slope}")
    if not (span[0] <= last[0] and last[1] <= span[1]):
        out.append(f"{label} tail span does not contain the trace end")
    if not span[0] <= fixed_point <= span[1]:
        out.append(f"{label} tail span does not reach its fixed point")
    if last[1] - last[0] > delta:
        out.append(f"{label} trace end is wider than delta")
    if contracting and slope >= 1:
        out.append(f"{label} tail slope {slope} is not < 1")
    if not contracting and slope <= 1:
        out.append(f"{label} tail slope {slope} is not > 1")
    return out


# --- separation gaps -----------------------------------------------------------


@dataclass(frozen=True)
class PLObservable:
    """Real-valued PL function on the unit interval chart (complex observables
    are handled component-wise)."""

    breakpoints: tuple
    values: tuple

    @classmethod
    def build(cls, breakpoints, values) -> "PLObservable":
        bs = tuple(Fraction(b) for b in breakpoints)
        vs = tuple(Fraction(v) for v in values)
        if len(bs) != len(vs) or len(bs) < 2:
            raise InvalidDocument("observable needs paired breakpoints and values")
        if bs[0] != 0 or bs[-1] != 1:
            raise InvalidDocument("observable chart must cover [0, 1]")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise InvalidDocument("breakpoints must be strictly increasing")
        return cls(bs, vs)

    @cached_property
    def pieces(self):
        """(slopes, offsets): the `_pieces` table over the breakpoints."""
        return _pieces(self.breakpoints, self.values)

    def eval(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        xs = self.breakpoints
        if not xs[0] <= x <= xs[-1]:
            raise ValueError(f"{x} outside [{xs[0]}, {xs[-1]}]")
        i = min(bisect_right(xs, x), len(xs) - 1) - 1
        slopes, offsets = self.pieces
        return slopes[i] * x + offsets[i]


def parse_pl_observable(document) -> PLObservable:
    doc = _as_dict(document)
    for key in ("breakpoints", "values"):
        if key not in doc:
            raise InvalidDocument(f"PL observable document lacks {key!r}")
    return PLObservable.build(
        _rational_list(doc, "breakpoints"), _rational_list(doc, "values")
    )


def _oscillation_candidates(phi: PLObservable, lo: Fraction, hi: Fraction):
    vals = [phi.eval(lo), phi.eval(hi)]
    vals += [v for bp, v in zip(phi.breakpoints, phi.values) if lo < bp < hi]
    return vals


def separation_gap(cert: Certificate, phi: PLObservable) -> Fraction:
    """Half the oscillation of phi over the certified probe interval.

    Every observable expansive at the certified threshold is constant on the
    probe, so phi sits at least this far (in sup distance) from all of them.
    The probe may live in a wandering arc through 0; the chart split keeps
    oscillation candidates exact in that case.
    """
    u1, u2 = cert.probe
    if u2 <= 1:
        vals = _oscillation_candidates(phi, u1, u2)
    elif u1 >= 1:
        vals = _oscillation_candidates(phi, u1 - 1, u2 - 1)
    else:
        vals = _oscillation_candidates(phi, u1, Fraction(1))
        vals += _oscillation_candidates(phi, Fraction(0), u2 - 1)
    return (max(vals) - min(vals)) / 2


# --- rigid rotations ------------------------------------------------------------


@dataclass(frozen=True)
class RotationCaseReport:
    rho: Fraction
    p: int
    q: int
    grid_size: int
    e_star: Fraction
    mesh: Fraction
    omega_identity: bool
    quotient_threshold: Fraction
    blocks: tuple
    single_block: bool
    identity_chain_match: bool


def analyze_rotation_case(mapping: PLCircleMap) -> RotationCaseReport:
    """For a rigid rotation lift x + p/q, analyze the invariant q-point grid:
    the rotation is an isometry, so orbit separation equals plain distance
    (omega_identity) and the quotient agrees with plain chain components at
    every realized threshold (identity_chain_match); at threshold 1/q the
    indistinguishability quotient collapses to a single block — only constants
    are expansive there.  An integer rotation (the identity on the circle) is
    demonstrated on an 8-point grid.
    """
    rho = mapping.values[0] - mapping.breakpoints[0]
    if any(v - b != rho for b, v in zip(mapping.breakpoints, mapping.values)):
        raise NotRigid("lift is not x + c on every breakpoint")
    p, q = rho.numerator, rho.denominator
    grid = rotation_grid(8, 0) if q == 1 else rotation_grid(q, p % q)
    identity_match = all(
        indistinguishability_quotient(grid, t).blocks == chain_components(grid, t)
        for t in grid.realized_distances()
    )
    threshold = Fraction(1, len(grid.points))
    quotient = indistinguishability_quotient(grid, threshold)
    return RotationCaseReport(
        rho=rho,
        p=p,
        q=q,
        grid_size=len(grid.points),
        e_star=e_star(grid),
        mesh=system_mesh(grid),
        omega_identity=all(w == t for t, w in omega_map_table(grid)),
        quotient_threshold=threshold,
        blocks=quotient.blocks,
        single_block=len(quotient.blocks) == 1,
        identity_chain_match=identity_match,
    )


# --- interval maps ---------------------------------------------------------------
#
# An increasing PL homeomorphism F of [0, 1] fixing both ends is the degree-one
# circle lift with F(0) = 0 restricted to [0, 1]: its last node (1, 1) is the
# node (1, F(0) + 1) that closes every lift.  Interval maps are PLCircleMaps.


def parse_interval_map(document):
    """Parse an interval homeomorphism document.

    Returns (map, power): an increasing map comes back as (map, 1); a
    decreasing homeomorphism f (swapping the endpoints) is analyzed through
    its square, returned as (f o f, 2).  With R(x) = 1 - x the square is
    (f o R) o (R o f), a composition of two increasing maps fixing 0 and 1.
    """
    doc = _as_dict(document)
    for key in ("breakpoints", "values"):
        if key not in doc:
            raise InvalidDocument(f"interval map document lacks {key!r}")
    bs = _rational_list(doc, "breakpoints")
    vs = _rational_list(doc, "values")
    if len(bs) != len(vs) or len(bs) < 2:
        raise InvalidDocument("breakpoints and values must pair up")
    if bs[0] != 0 or bs[-1] != 1:
        raise InvalidDocument("interval map must cover [0, 1]")
    if vs[0] == 1 and vs[-1] == 0:
        if any(v2 >= v1 for v1, v2 in zip(vs, vs[1:])):
            raise InvalidDocument("decreasing map must decrease strictly")
        inner = PLCircleMap.build(bs[:-1], [1 - v for v in vs[:-1]])
        outer = PLCircleMap.build([1 - b for b in bs[:0:-1]], vs[:0:-1])
        return compose_circle(outer, inner), 2
    if vs[0] != 0 or vs[-1] != 1:
        raise InvalidDocument("interval map must fix 0 and 1")
    return PLCircleMap.build(bs[:-1], vs[:-1]), 1


def interval_pipeline(document, delta: Fraction,
                      n_max: int = DEFAULT_N_MAX) -> Certificate:
    """Locate the wandering components of an interval homeomorphism and
    certify the first one.

    A decreasing document is reduced to its square (recorded as q=2 in the
    certificate).  Raises AllFixed (with an analytical report) when the
    reduced map is the identity, where every observable is trivially stable
    on every component.  The arcs come from `reduced_power`, as for a circle
    map: F(0) = 0 and F(x) > x - 1, so the rotation search stops at p = 0,
    q = 1 without composing, and the complementary arcs of the fixed set,
    read on the circle, are the interval's components in order.
    """
    doc = _as_dict(document)
    mapping, power = parse_interval_map(doc)
    g, report = reduced_power(mapping)
    if not report.arcs:
        raise AllFixed(
            "every point is fixed; dynamics adds nothing to plain distance",
            report={
                "outcome": "all_fixed",
                "power": power,
                "note": (
                    "Fix(F) = [0,1]: orbit separation equals distance, the "
                    "indistinguishability quotient at any delta equals the "
                    "delta-chain components, and locally constant observables "
                    "are exactly the delta-expansive ones."
                ),
            },
        )
    return _certify_core(g, "interval", report.arcs, power, 0, delta, n_max, doc)


# --- certificate interchange -----------------------------------------------------


def _base_slope_bound(cert: Certificate) -> Fraction:
    """Lipschitz constant of the base map (max |slope| over its pieces); an
    interval document may be decreasing."""
    if cert.space == "circle":
        slopes = parse_circle_map(cert.map_document).segments[2]
    else:
        slopes, _ = _pieces(_rational_list(cert.map_document, "breakpoints"),
                            _rational_list(cert.map_document, "values"))
    return max(map(abs, slopes))


def serialize_certificate(cert: Certificate) -> dict:
    """Certificate as a replayable document.

    delta is the threshold for the reduced power g; base_delta translates it
    back to the base map: orbit separation under the base map exceeds that
    under g by at most the slope bound per skipped step, so any observable
    expansive for the base map at base_delta is expansive for g at delta and
    hence constant on the probe.  Both thresholds are printed.
    """
    slope_bound = _base_slope_bound(cert)
    doc = {
        "space": cert.space,
        "map": cert.map_document,
        "map_id": cert.map_id,
        "delta": format_rational(cert.delta),
        "base_delta": format_rational(cert.delta * slope_bound ** (cert.q - 1)),
        "base_map_max_slope": format_rational(slope_bound),
        "q": cert.q,
        "p": cert.p,
        "arc": [format_rational(cert.arc[0]), format_rational(cert.arc[1])],
        "probe": [format_rational(cert.probe[0]), format_rational(cert.probe[1])],
        "horizon": cert.horizon,
        "direction": cert.direction,
        "mode": cert.mode,
        "trace": [
            {
                "n": n,
                "lo": format_rational(lo),
                "hi": format_rational(hi),
                "diam": format_rational(_diam(cert.space, lo, hi)),
            }
            for n, lo, hi in cert.trace
        ],
    }
    if cert.tail:
        doc["tail"] = {
            label: {
                "span": [format_rational(t["span"][0]), format_rational(t["span"][1])],
                "slope": format_rational(t["slope"]),
            }
            for label, t in cert.tail.items()
        }
    return doc


def _cert_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(f"certificate {what} must be an integer")
    return value


def _cert_pair(value, what: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidDocument(f"certificate {what} must be a pair of rationals")
    return parse_rational(value[0]), parse_rational(value[1])


def _cert_object(value, what: str, keys=()) -> dict:
    if not isinstance(value, dict) or any(key not in value for key in keys):
        needs = f" with {', '.join(keys)}" if keys else ""
        raise InvalidDocument(f"certificate {what} must be an object{needs}")
    return value


def parse_certificate(document) -> Certificate:
    doc = _as_dict(document)
    needed = ("space", "map", "map_id", "delta", "q", "p", "arc", "probe",
              "horizon", "direction", "mode", "trace")
    for key in needed:
        if key not in doc:
            raise InvalidDocument(f"certificate lacks {key!r}")
    horizon = _cert_int(doc["horizon"], "'horizon'")
    if horizon < 0:
        raise InvalidDocument("certificate 'horizon' must not be negative")
    if doc["space"] not in ("circle", "interval"):
        raise InvalidDocument("certificate 'space' must be 'circle' or 'interval'")
    if _cert_int(doc["direction"], "'direction'") not in (1, -1):
        raise InvalidDocument("certificate 'direction' must be 1 or -1")
    if doc["mode"] not in ("contracting", "cap"):
        raise InvalidDocument("certificate 'mode' must be 'contracting' or 'cap'")
    if not isinstance(doc["trace"], list):
        raise InvalidDocument("certificate 'trace' must be a list")
    trace = []
    for entry in doc["trace"]:
        entry = _cert_object(entry, "trace entry", ("n", "lo", "hi"))
        trace.append((_cert_int(entry["n"], "trace 'n'"),
                      parse_rational(entry["lo"]), parse_rational(entry["hi"])))
    tail = {}
    for label, t in _cert_object(doc.get("tail", {}), "'tail'").items():
        t = _cert_object(t, f"tail {label!r}", ("span", "slope"))
        tail[label] = {
            "span": _cert_pair(t["span"], f"tail {label!r} span"),
            "slope": parse_rational(t["slope"]),
        }
    return Certificate(
        space=doc["space"],
        map_document=doc["map"],
        map_id=doc["map_id"],
        delta=parse_rational(doc["delta"]),
        q=_cert_int(doc["q"], "'q'"),
        p=_cert_int(doc["p"], "'p'"),
        arc=_cert_pair(doc["arc"], "'arc'"),
        probe=_cert_pair(doc["probe"], "'probe'"),
        horizon=horizon,
        direction=doc["direction"],
        mode=doc["mode"],
        trace=tuple(trace),
        tail=tail,
    )
