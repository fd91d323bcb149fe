import importlib
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expobs.circle import (
    CIRCLE_DIAM_CAP,
    Certificate,
    IteratedPower,
    PLCircleMap,
    PLObservable,
    analyze_rotation_case,
    certify,
    circle_power,
    compose_circle,
    interval_pipeline,
    map_identifier,
    parse_certificate,
    parse_circle_map,
    parse_interval_map,
    parse_pl_observable,
    periodic_points,
    reduced_power,
    rotation_number,
    separation_gap,
    serialize_certificate,
    serialize_circle_map,
    shift_values,
    verify_certificate,
    wandering_intervals,
)
from expobs.errors import (
    AllFixed,
    HorizonExceeded,
    InvalidDocument,
    NoPeriodicOrbit,
    NotRigid,
    NoWanderingInterval,
)
from expobs.library import (
    m0_circle_document,
    plateau_circle_document,
    quarter_turn_circle_document,
    reflection_interval_document,
    rigid_rotation_document,
    valley_interval_document,
)
from oracles import (
    brute_compose,
    conjugate_by_rotation,
    interp,
    interp_lift,
    lift_nodes,
    scan_affine_span_slope,
    scan_inverse_lift,
)


@pytest.fixture(scope="module")
def m0():
    return parse_circle_map(m0_circle_document())


@pytest.fixture(scope="module")
def plateau():
    return parse_circle_map(plateau_circle_document())


def rational_points(count, seed, den=96):
    rng = random.Random(seed)
    return [Fraction(rng.randrange(den), den) for _ in range(count)]


def symmetric_bump_maps(count, seed):
    """Circle maps with rotation number p/q, q <= 5: x + p/q after a bump
    that fixes every multiple of 1/q, seen from a random rotated chart."""
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        q = rng.randint(1, 5)
        p = rng.choice([p for p in range(q) if gcd(p, q) == 1] or [0])
        lift = Fraction(rng.randint(-3, 3), 8 * q)
        bs, vs = [], []
        for j in range(q):
            bs += [Fraction(j, q), Fraction(2 * j + 1, 2 * q)]
            vs += [Fraction(j + p, q), Fraction(2 * j + 1, 2 * q) + lift + Fraction(p, q)]
        c = Fraction(rng.randint(0, 95), 96)
        maps.append(conjugate_by_rotation(PLCircleMap.build(bs, vs), c))
    return maps


def random_lifts(count, seed):
    """Lifts with 1-5 random breakpoints on a 1/96 grid, F(0) in [-2, 2)
    and random positive increments summing to less than 1 (distinct cuts
    on a 1/97 grid, so every increment is positive)."""
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        inner = {Fraction(rng.randrange(1, 96), 96) for _ in range(rng.randint(0, 4))}
        bs = sorted({Fraction(0)} | inner)
        cuts = sorted(Fraction(c, 97) for c in rng.sample(range(1, 96), len(bs)))
        start = Fraction(rng.randrange(-192, 192), 96)
        maps.append(PLCircleMap.build(bs, [start] + [start + c for c in cuts[:-1]]))
    return maps


def oracle_maps():
    """Random lifts, symmetric bumps and a one-breakpoint rotation by 3/7."""
    rotation = PLCircleMap.build([0], [Fraction(3, 7)])
    return random_lifts(60, seed=9) + symmetric_bump_maps(20, seed=10) + [rotation]


def probe_spans(mapping, rng):
    """Spans [lo, hi] in both orders: random ones on a 1/288 grid (negative,
    longer than 1), spans ending on a node, and degenerate ones."""
    nodes = [b + n for b in mapping.breakpoints for n in (-1, 0, 1)]
    spans = []
    for _ in range(40):
        lo = Fraction(rng.randrange(-600, 600), 288)
        spans.append((lo, lo + Fraction(rng.randrange(0, 400), 288)))
        node = rng.choice(nodes)
        spans.append((node, node + Fraction(rng.choice((-1, 1)) * rng.randrange(1, 300), 288)))
        spans.append((node, rng.choice(nodes)))
    return spans + [(hi, lo) for lo, hi in spans]


def seeded_interval_documents(count, seed):
    """Increasing PL maps of [0, 1] on a 1/48 grid; about one node in three
    is fixed, so the fixed sets range from {0, 1} to blocks."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        inner = sorted({Fraction(rng.randrange(1, 48), 48) for _ in range(rng.randint(1, 5))})
        bs = [Fraction(0)] + inner + [Fraction(1)]
        values = [Fraction(0)]
        for b, b_next in zip(inner, bs[2:]):
            low, high = values[-1], b_next - (b_next - b) / 2
            values.append(b if rng.random() < 1 / 3 and low < b else
                          low + (high - low) * Fraction(rng.randint(1, 9), 10))
        values.append(Fraction(1))
        docs.append({"breakpoints": [str(b) for b in bs], "values": [str(v) for v in values]})
    return docs


class TestPLCircleMap:
    def test_lift_is_degree_one(self, m0):
        for x in rational_points(20, 1):
            assert m0.eval_lift(x + 1) == m0.eval_lift(x) + 1

    def test_monotone(self, m0):
        pts = sorted(rational_points(20, 2))
        vals = [m0.eval_lift(x) for x in pts]
        assert vals == sorted(vals)

    def test_inverse_lift(self, m0):
        for x in rational_points(30, 3):
            assert m0.inverse_lift(m0.eval_lift(x)) == x

    def test_inverse_lift_matches_the_linear_scan(self, m0, plateau):
        """inverse_lift reads the node lists backward through the same
        interpolation as eval_lift; the reference scans the segments."""
        for mapping in [m0, plateau] + symmetric_bump_maps(10, seed=5) + random_lifts(30, seed=6):
            top = mapping.values[0] + 1
            ys = list(mapping.values) + [top, top - 3, mapping.values[-1] - 2]
            ys += [Fraction(-5, 7), Fraction(-13, 3), Fraction(1, 3), Fraction(7, 5)]
            for y in ys + [y + k for y in ys for k in (-1, 2)]:
                assert mapping.inverse_lift(y) == scan_inverse_lift(mapping, y)
                assert mapping.eval_lift(mapping.inverse_lift(y)) == y

    def test_segments_close_the_lift_and_are_kept(self, m0, plateau):
        for mapping in [m0, plateau] + oracle_maps():
            xs, ys, slopes, offsets = mapping.segments
            assert (xs, ys) == lift_nodes(mapping)
            assert len(slopes) == len(offsets) == len(xs) - 1
            for i, (s, c) in enumerate(zip(slopes, offsets)):
                assert s * xs[i] + c == ys[i]
                assert s * xs[i + 1] + c == ys[i + 1]
        assert plateau.segments is plateau.segments

    def test_build_rejects_bad_documents(self):
        with pytest.raises(InvalidDocument):
            parse_circle_map({"breakpoints": ["1/4"], "lift_values": ["0"]})
        with pytest.raises(InvalidDocument):
            parse_circle_map(
                {"breakpoints": ["0", "1/2"], "lift_values": ["1/2", "0"]}
            )
        with pytest.raises(InvalidDocument):
            parse_circle_map({"breakpoints": ["0", "0"], "lift_values": ["0", "0"]})

    def test_document_round_trip(self, m0, plateau):
        for mapping in (m0, plateau):
            assert parse_circle_map(serialize_circle_map(mapping)) == mapping

    def test_map_identifier_is_stable_hex(self, m0):
        a = map_identifier(serialize_circle_map(m0))
        b = map_identifier(serialize_circle_map(m0))
        assert a == b
        assert len(a) == 12
        int(a, 16)


class TestLiftInputs:
    """The lifts convert only inputs that are not already `Fraction`s and
    shift by the floor only when it is nonzero; `build` converts likewise."""

    def test_int_and_str_inputs_give_fractions(self, m0, plateau):
        for mapping in (m0, plateau):
            for raw in (0, 3, -2, "2", "5/7", "-13/4"):
                for method in (mapping.eval_lift, mapping.inverse_lift):
                    value = method(raw)
                    assert type(value) is Fraction
                    assert value == method(Fraction(raw))

    def test_results_at_floor_zero_positive_and_negative(self):
        for mapping in oracle_maps():
            start = mapping.values[0]
            for shift in (0, 3, -4):
                for r in rational_points(6, 57) + [Fraction(0)]:
                    x, y = r + shift, start + r + shift
                    assert mapping.eval_lift(x) == interp_lift(mapping, x)
                    assert mapping.inverse_lift(y) == scan_inverse_lift(mapping, y)
                    assert type(mapping.eval_lift(x)) is type(mapping.inverse_lift(y)) is Fraction

    def test_build_converts_int_and_str(self):
        built = PLCircleMap.build([0, "1/4", Fraction(1, 2)], ["-1", Fraction(-7, 8), "-1/4"])
        assert built == PLCircleMap.build(
            [Fraction(0), Fraction(1, 4), Fraction(1, 2)],
            [Fraction(-1), Fraction(-7, 8), Fraction(-1, 4)],
        )
        assert all(type(v) is Fraction for v in built.breakpoints + built.values)

    @pytest.mark.parametrize("bs, vs, message", [
        ([], [], "breakpoints and lift values must pair up"),
        ([0, "1/2"], [0], "breakpoints and lift values must pair up"),
        (["1/4"], [0], "breakpoints must start at 0"),
        ([0, 1], [0, "1/2"], "breakpoints must lie in [0, 1)"),
        ([0, Fraction(1, 2), "1/4"], [0, 1, 2], "breakpoints must be strictly increasing"),
        ([0, "1/2"], ["1/2", 0], "lift values must increase strictly with slope > 0"),
        ([Fraction(0), "1/2"], [0, 1], "lift values must increase strictly with slope > 0"),
    ])
    def test_build_keeps_every_check(self, bs, vs, message):
        with pytest.raises(InvalidDocument) as info:
            PLCircleMap.build(bs, vs)
        assert str(info.value) == message


class TestPieceTable:
    """Every reader of the affine-piece table against the interpolating
    references in `oracles`."""

    def test_eval_and_inverse_match_the_interpolation(self):
        rng = random.Random(31)
        for mapping in oracle_maps():
            xs = [b + n for b in mapping.breakpoints for n in (-2, 0, 1)]
            xs += [Fraction(rng.randrange(-600, 600), 288) for _ in range(30)]
            for x in xs:
                y = interp_lift(mapping, x)
                assert mapping.eval_lift(x) == y
                for target in (y, x):
                    assert mapping.inverse_lift(target) == scan_inverse_lift(mapping, target)

    def test_affine_span_slope_matches_the_scan(self):
        rng = random.Random(32)
        affine = broken = 0
        for mapping in oracle_maps():
            for lo, hi in probe_spans(mapping, rng):
                slope = scan_affine_span_slope(mapping, lo, hi)
                assert mapping.affine_span_slope(lo, hi) == slope
                affine += slope is not None
                broken += slope is None and lo != hi
        assert affine >= 1000 and broken >= 1000

    def test_periodic_points_solve_the_lifted_equation(self):
        """Block ends and block midpoints solve F^q(x) = x + p under the
        interpolating reference; points between blocks do not."""
        solved = 0
        for mapping in oracle_maps():
            rho = rotation_number(mapping, q_max=8)
            if rho is None:
                continue
            solved += 1
            p, q = rho.numerator, rho.denominator

            def moved(x):
                for _ in range(q):
                    x = interp_lift(mapping, x)
                return x - p

            blocks, full = periodic_points(mapping, p, q)
            if full:
                assert all(moved(x) == x for x in rational_points(12, 33))
                continue
            for lo, hi in blocks:
                assert moved(lo) == lo and moved(hi) == hi
                assert moved((lo + hi) / 2) == (lo + hi) / 2
            next_starts = [lo for lo, _ in blocks[1:]] + [blocks[0][0] + 1]
            for (_, a), b in zip(blocks, next_starts):
                assert a < b
                assert moved((a + b) / 2) != (a + b) / 2
        assert solved >= 50

    def test_pl_observable_eval_matches_the_interpolation(self):
        rng = random.Random(34)
        for _ in range(60):
            inner = sorted({Fraction(rng.randrange(1, 48), 48) for _ in range(rng.randint(0, 4))})
            bs = [Fraction(0)] + inner + [Fraction(1)]
            vs = [Fraction(rng.randrange(-20, 20), 7) for _ in bs]
            phi = PLObservable.build(bs, vs)
            for x in bs + [Fraction(rng.randrange(0, 97), 96) for _ in range(10)]:
                assert phi.eval(x) == interp(bs, vs, x)
            for x in (Fraction(-1, 96), Fraction(97, 96)):
                with pytest.raises(ValueError) as exc:
                    phi.eval(x)
                with pytest.raises(ValueError) as ref:
                    interp(bs, vs, x)
                assert str(exc.value) == str(ref.value) == f"{x} outside [0, 1]"


class TestComposition:
    def test_compose_matches_pointwise(self, m0, plateau):
        comp = compose_circle(m0, plateau)
        for x in rational_points(40, 4):
            assert comp.eval_lift(x) == m0.eval_lift(plateau.eval_lift(x))

    def test_power_matches_iteration(self, m0):
        cubed = circle_power(m0, 3)
        for x in rational_points(25, 5):
            assert cubed.eval_lift(x) == m0.eval_lift(m0.eval_lift(m0.eval_lift(x)))

    def test_matches_the_interpolating_reference(self, m0, plateau):
        """Same breakpoint and value tuples as interpolating every node."""
        bumps = symmetric_bump_maps(10, seed=17)
        pairs = [(m0, plateau), (plateau, m0), (m0, m0), (plateau, plateau)]
        pairs += list(zip(bumps, bumps[1:])) + [(f, f) for f in bumps]
        for outer, inner in pairs:
            assert compose_circle(outer, inner) == brute_compose(outer, inner)

    def test_pulled_back_node_on_an_inner_breakpoint(self):
        # inner(1/2) = 5/4, so outer's breakpoint 1/4 pulls back to 1/2 - 1,
        # which reduces onto inner's own breakpoint 1/2.
        inner = PLCircleMap.build([0, Fraction(1, 2)], [1, Fraction(5, 4)])
        outer = PLCircleMap.build([0, Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 2)])
        comp = compose_circle(outer, inner)
        assert comp.breakpoints == (0, Fraction(1, 2))
        assert comp == brute_compose(outer, inner)

    def test_decreasing_interval_square_matches_the_reference(self, monkeypatch):
        circle_module = importlib.import_module("expobs.circle")
        compose = circle_module.compose_circle
        agreed = []

        def checked(outer, inner):
            result = compose(outer, inner)
            agreed.append(result == brute_compose(outer, inner))
            return result

        monkeypatch.setattr(circle_module, "compose_circle", checked)
        skewed = {"breakpoints": ["0", "1/3", "1/2", "1"], "values": ["1", "1/2", "1/5", "0"]}
        for doc in (reflection_interval_document(), skewed):
            _, power = parse_interval_map(doc)
            assert power == 2
        assert agreed == [True, True]

    def test_shift_values(self, m0):
        shifted = shift_values(m0, 2)   # F - 2
        for x in rational_points(10, 6):
            assert shifted.eval_lift(x) == m0.eval_lift(x) - 2


class TestRotationNumber:
    def test_m0_has_fixed_points(self, m0):
        assert rotation_number(m0) == 0

    def test_rigid_three_eighths(self):
        rot = parse_circle_map(rigid_rotation_document("3/8"))
        assert rotation_number(rot) == Fraction(3, 8)

    def test_q_max_cutoff(self):
        rot = parse_circle_map(rigid_rotation_document("5/7"))
        assert rotation_number(rot, q_max=3) is None
        assert rotation_number(rot, q_max=7) == Fraction(5, 7)

    def test_conjugation_invariance(self, m0):
        for c in (Fraction(1, 3), Fraction(5, 8)):
            assert rotation_number(conjugate_by_rotation(m0, c)) == 0


class TestPeriodicStructure:
    def test_m0_fixed_set(self, m0):
        blocks, full = periodic_points(m0, 0, 1)
        assert blocks == ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)))
        assert not full

    def test_plateau_fixed_block(self, plateau):
        blocks, full = periodic_points(plateau, 0, 1)
        assert blocks == ((Fraction(1, 4), Fraction(1, 2)),)
        assert not full

    def test_wandering_arcs(self, m0, plateau):
        assert wandering_intervals(m0).arcs == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)),
        )
        assert wandering_intervals(plateau).arcs == (
            (Fraction(1, 2), Fraction(5, 4)),
        )

    def test_rigid_rotation_has_no_arcs(self):
        rot = parse_circle_map(rigid_rotation_document("3/8"))
        with pytest.raises(NoWanderingInterval):
            certify(rot, Fraction(1, 16))

    def test_irrational_like_map_raises(self):
        rot = parse_circle_map(rigid_rotation_document("5/7"))
        with pytest.raises(NoPeriodicOrbit):
            wandering_intervals(rot, q_max=3)

    def test_reduced_power_reuses_the_rotation_power(self, monkeypatch):
        """g = F^q - p is the power the rotation search ended on: q - 1
        compositions in all, and the same map as composing F^q afresh."""
        circle_module = importlib.import_module("expobs.circle")
        calls = []
        compose = circle_module.compose_circle

        def counting(outer, inner):
            calls.append(1)
            return compose(outer, inner)

        for mapping in symmetric_bump_maps(12, seed=41):
            rho = rotation_number(mapping)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(circle_module, "compose_circle", counting)
                g, report = reduced_power(mapping)
            assert len(calls) == rho.denominator - 1
            assert (report.p, report.q) == (rho.numerator, rho.denominator)
            assert g == shift_values(circle_power(mapping, report.q), report.p)
            assert report.arcs == circle_module._complement_arcs(
                *periodic_points(mapping, report.p, report.q)
            )


def composed_and_iterated(count, seed):
    """(base, composed, iterated) with q in 1..6 and p in -2..2, on bump maps
    and random lifts: composed is `shift_values(circle_power(base, q), p)`."""
    rng = random.Random(seed)
    for base in symmetric_bump_maps(count, seed) + random_lifts(count, seed + 1):
        q, p = rng.randint(1, 6), rng.randint(-2, 2)
        yield base, shift_values(circle_power(base, q), p), IteratedPower(base, q, p)


class TestIteratedPower:
    """The replay's reduced power iterates the base lift and equals the
    composed power on every reader `verify_certificate` calls."""

    def test_values_match_the_composed_power(self):
        rng = random.Random(61)
        for base, composed, iterated in composed_and_iterated(10, seed=62):
            points = [b + n for b in composed.breakpoints for n in (-1, 0, 2)]
            points += [Fraction(rng.randrange(-600, 600), 288) for _ in range(20)]
            for x in points:
                assert iterated.eval_lift(x) == composed.eval_lift(x)
                assert iterated.inverse_lift(x) == composed.inverse_lift(x)

    def test_affine_spans_match_the_composed_power(self):
        """Spans over the composed power's nodes: some straddle a node that
        only a pulled-back base node gives, some end exactly on one, some
        are longer than 1."""
        rng = random.Random(63)
        straddle = on_node = longer = 0
        for base, composed, iterated in composed_and_iterated(10, seed=64):
            pulled = [b + n for b in set(composed.breakpoints) - set(base.breakpoints)
                      for n in range(-3, 4)]
            for lo, hi in probe_spans(composed, rng):
                slope = composed.affine_span_slope(lo, hi)
                assert iterated.affine_span_slope(lo, hi) == slope
                lo, hi = min(lo, hi), max(lo, hi)
                straddle += any(lo < x < hi for x in pulled)
                on_node += lo in pulled or hi in pulled
                longer += hi - lo > 1
        assert straddle >= 1000 and on_node >= 1000 and longer >= 500

    def test_q_below_one_is_refused_like_circle_power(self, m0):
        for q in (0, -1):
            with pytest.raises(ValueError, match="power needs q >= 1"):
                IteratedPower(m0, q, 0)

    def test_verify_composes_nothing(self, monkeypatch):
        circle_module = importlib.import_module("expobs.circle")
        calls = []
        compose = circle_module.compose_circle

        def counting(outer, inner):
            calls.append(1)
            return compose(outer, inner)

        maps = [parse_circle_map(quarter_turn_circle_document())] + symmetric_bump_maps(12, seed=65)
        certs = []
        for mapping in maps:
            try:
                certs.append(certify(mapping, Fraction(1, 64)))
            except NoWanderingInterval:
                continue
        assert sum(cert.q > 1 for cert in certs) >= 5
        monkeypatch.setattr(circle_module, "compose_circle", counting)
        for cert in certs:
            assert verify_certificate(parse_certificate(serialize_certificate(cert))).ok
        assert calls == []

    def test_q_above_q_max_is_refused_before_any_step(self, monkeypatch):
        circle_module = importlib.import_module("expobs.circle")
        cert = certify(parse_circle_map(quarter_turn_circle_document()), Fraction(1, 16))
        assert cert.q == 4
        calls = []
        for name in ("eval_lift", "inverse_lift", "affine_span_slope"):
            monkeypatch.setattr(PLCircleMap, name, lambda *args, name=name: calls.append(name))
        for name in ("parse_circle_map", "compose_circle"):
            monkeypatch.setattr(circle_module, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(HorizonExceeded, match="certificate q = 4 exceeds q_max = 3"):
            verify_certificate(cert, q_max=3)
        assert calls == []


class TestCertify:
    def test_m0_frozen_certificate(self, m0):
        cert = certify(m0, Fraction(1, 16))
        assert cert.q == 1 and cert.p == 0
        assert cert.arc == (Fraction(0), Fraction(1, 2))
        assert cert.probe == (Fraction(11, 48), Fraction(13, 48))
        assert cert.horizon == 1
        assert cert.mode == "contracting"
        assert verify_certificate(cert).ok

    def test_cap_mode(self, m0):
        cert = certify(m0, Fraction(2))
        assert cert.mode == "cap"
        assert cert.horizon == 0
        assert cert.delta >= CIRCLE_DIAM_CAP
        assert verify_certificate(cert).ok

    def test_verify_at_larger_delta(self, m0):
        cert = certify(m0, Fraction(1, 16))
        assert verify_certificate(cert, Fraction(1, 8)).ok
        report = verify_certificate(cert, Fraction(1, 32))
        assert not report.ok
        assert any("smaller" in v for v in report.violations)

    def test_tampered_probe_detected(self, m0):
        cert = certify(m0, Fraction(1, 16))
        bad = Certificate(
            space=cert.space,
            map_document=cert.map_document,
            map_id=cert.map_id,
            delta=cert.delta,
            q=cert.q,
            p=cert.p,
            arc=cert.arc,
            probe=(Fraction(11, 48), Fraction(7, 24)),
            horizon=cert.horizon,
            direction=cert.direction,
            mode=cert.mode,
            trace=cert.trace,
            tail=cert.tail,
        )
        assert not verify_certificate(bad).ok

    def test_tampered_map_id_detected(self, m0):
        cert = certify(m0, Fraction(1, 16))
        doc = serialize_certificate(cert)
        doc["map_id"] = "0" * 12
        assert not verify_certificate(parse_certificate(doc)).ok

    def test_certificate_document_round_trip(self, m0):
        cert = certify(m0, Fraction(1, 16))
        doc = serialize_certificate(cert)
        again = parse_certificate(doc)
        assert again == cert
        assert verify_certificate(again).ok

    def test_dual_threshold_fields(self, m0):
        doc = serialize_certificate(certify(m0, Fraction(1, 16)))
        assert doc["base_delta"] == "1/16"           # q = 1: L^(q-1) = 1
        assert doc["base_map_max_slope"] == "3/2"

    def test_plateau_certalready_wanders(self, plateau):
        cert = certify(plateau, Fraction(1, 16))
        assert cert.q == 1
        assert verify_certificate(cert).ok

    def test_certify_conjugated_map(self, m0):
        moved = conjugate_by_rotation(m0, Fraction(1, 3))
        cert = certify(moved, Fraction(1, 16))
        assert verify_certificate(cert).ok


class TestReplayBudget:
    def test_unbacked_horizon_is_rejected_before_replay(self, m0):
        """A three-entry trace claiming horizon 10^6 is refused by counting
        entries, without building anything of the horizon's size."""
        cert = certify(m0, Fraction(1, 16))
        doc = serialize_certificate(cert)
        doc["horizon"] = 10 ** 6
        bad = parse_certificate(doc)
        tracemalloc.start()
        try:
            report = verify_certificate(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.violations == ("trace does not cover -N..N",)
        assert peak < 4 * 2 ** 20

    def test_trace_with_a_gap_is_rejected(self, m0):
        cert = certify(m0, Fraction(1, 16))
        doc = serialize_certificate(cert)
        doc["trace"][0]["n"] = 2
        assert "trace does not cover -N..N" in verify_certificate(parse_certificate(doc)).violations


def tail_certificates():
    """The circle m0 and the interval valley certificates at delta 1/16.
    Both have the forward tail span [11/32, 1/2] (slope 1/2), the backward
    span [0, 13/72] (slope 3/2) and the trace end (11/32, 37/96) at n = 1."""
    return {
        "m0_circle": certify(parse_circle_map(m0_circle_document()), Fraction(1, 16)),
        "valley_interval": interval_pipeline(valley_interval_document(), Fraction(1, 16)),
    }


class TestTailChecks:
    """Each tail statement that `verify_certificate` replays, broken alone
    in an otherwise valid certificate document."""

    @pytest.fixture(scope="class", params=["m0_circle", "valley_interval"])
    def document(self, request):
        return serialize_certificate(tail_certificates()[request.param])

    def violations(self, document, label, **edits):
        doc = json.loads(json.dumps(document))
        doc["tail"][label].update(edits)
        return verify_certificate(parse_certificate(doc)).violations

    def test_unchanged_document_verifies(self, document):
        assert verify_certificate(parse_certificate(document)).ok

    def test_span_across_a_node_is_not_affine(self, document):
        assert self.violations(document, "forward", span=["11/32", "3/4"]) == (
            "forward tail span is not affine",
        )
        assert self.violations(document, "backward", span=["-1/2", "13/72"]) == (
            "backward tail span is not affine",
        )

    def test_altered_slope_is_recomputed(self, document):
        assert self.violations(document, "forward", slope="1/3") == (
            "forward tail slope mismatch: recomputed 1/2",
        )
        assert self.violations(document, "backward", slope="7") == (
            "backward tail slope mismatch: recomputed 3/2",
        )

    def test_span_must_contain_the_trace_end(self, document):
        assert self.violations(document, "forward", span=["3/8", "1/2"]) == (
            "forward tail span does not contain the trace end",
        )

    def test_forward_slope_must_contract(self, document):
        backward = document["tail"]["backward"]
        found = self.violations(document, "forward", **backward)
        assert "forward tail slope 3/2 is not < 1" in found
        forward = document["tail"]["forward"]
        found = self.violations(document, "backward", **forward)
        assert "backward tail slope 1/2 is not > 1" in found

    def test_overlapping_iterates_are_reported(self, document):
        """The n = -1 entry widened to reach into the probe at n = 0."""
        doc = json.loads(json.dumps(document))
        assert [entry["n"] for entry in doc["trace"]] == [-1, 0, 1]
        doc["trace"][0]["hi"] = "1/4"
        found = verify_certificate(parse_certificate(doc)).violations
        assert "iterates at n=-1 and n=0 overlap" in found


class TestSeparationGap:
    def test_identity_observable_gap(self, m0):
        cert = certify(m0, Fraction(1, 16))
        phi = parse_pl_observable({"breakpoints": ["0", "1"], "values": ["0", "1"]})
        gap = separation_gap(cert, phi)
        assert gap == Fraction(1, 48)
        assert gap > 0

    def test_constant_observable_has_no_gap(self, m0):
        cert = certify(m0, Fraction(1, 16))
        phi = parse_pl_observable(
            {"breakpoints": ["0", "1"], "values": ["1/3", "1/3"]}
        )
        assert separation_gap(cert, phi) == 0


class TestRotationCase:
    def test_three_eighths_reproduces_grid_collapse(self):
        rot = parse_circle_map(rigid_rotation_document("3/8"))
        case = analyze_rotation_case(rot)
        assert case.rho == Fraction(3, 8)
        assert case.grid_size == 8
        assert case.e_star == Fraction(1, 8)
        assert case.mesh == Fraction(1, 8)
        assert case.omega_identity
        assert case.quotient_threshold == Fraction(1, 8)
        assert case.single_block
        assert case.identity_chain_match

    def test_non_rigid_map_rejected(self, m0):
        with pytest.raises(NotRigid):
            analyze_rotation_case(m0)


class TestIntervalPipeline:
    def test_valley_yields_verified_certificate(self):
        cert = interval_pipeline(valley_interval_document(), Fraction(1, 16))
        assert cert.space == "interval"
        assert cert.q == 1
        assert verify_certificate(cert).ok
        lo, hi = cert.arc
        assert (lo, hi) in (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)),
        )

    def test_decreasing_document_slope_bound(self):
        """The base slope bound of a decreasing document is its largest
        |slope| (-3/2, -9/5, -2/5 here), and base_delta scales delta by it
        once, for q = 2."""
        doc = {"breakpoints": ["0", "1/3", "1/2", "1"], "values": ["1", "1/2", "1/5", "0"]}
        cert = interval_pipeline(doc, Fraction(1, 16))
        serialized = serialize_certificate(cert)
        assert (serialized["q"], serialized["base_map_max_slope"]) == (2, "9/5")
        assert serialized["base_delta"] == "9/80"
        assert verify_certificate(cert).ok

    def test_identity_is_all_fixed(self):
        doc = {"space": "interval", "breakpoints": ["0", "1"], "values": ["0", "1"]}
        with pytest.raises(AllFixed) as exc:
            interval_pipeline(doc, Fraction(1, 8))
        assert exc.value.report["power"] == 1

    def test_reflection_squares_to_all_fixed(self):
        with pytest.raises(AllFixed) as exc:
            interval_pipeline(reflection_interval_document(), Fraction(1, 8))
        assert exc.value.report["power"] == 2

    def test_decreasing_document_parses_to_square(self):
        square, power = parse_interval_map(reflection_interval_document())
        assert power == 2
        for x in rational_points(10, 7):
            assert square.eval_lift(x) == x   # reflection squared is the identity

    def test_interval_round_trip(self):
        mapping, power = parse_interval_map(valley_interval_document())
        assert power == 1
        assert mapping == PLCircleMap.build(
            [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
            [Fraction(0), Fraction(3, 8), Fraction(1, 2), Fraction(7, 8)],
        )

    def test_fixed_blocks_of_valley(self):
        mapping, _ = parse_interval_map(valley_interval_document())
        # The fixed point 1 of [0, 1] is the circle's 0.
        assert periodic_points(mapping, 0, 1) == (
            ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
            False,
        )

    def test_arc_is_the_first_gap_of_the_fixed_set(self):
        """The reduced-power path picks the same arc as the fixed set of F
        itself: p = 0, q = 1 and no composition for a map fixing 0."""
        circle_module = importlib.import_module("expobs.circle")
        certified = 0
        for doc in seeded_interval_documents(40, seed=12):
            mapping, _ = parse_interval_map(doc)
            blocks, full = periodic_points(mapping, 0, 1)
            if full:
                with pytest.raises(AllFixed):
                    interval_pipeline(doc, Fraction(1, 16))
                continue
            cert = interval_pipeline(doc, Fraction(1, 16))
            assert cert.arc == circle_module._complement_arcs(blocks, full)[0]
            assert (cert.q, cert.p) == (1, 0)
            assert verify_certificate(cert).ok
            certified += 1
        assert certified >= 30

    def test_interval_power_matches_iteration(self):
        mapping, _ = parse_interval_map(valley_interval_document())
        sq = circle_power(mapping, 2)
        for x in rational_points(12, 8):
            assert sq.eval_lift(x) == mapping.eval_lift(mapping.eval_lift(x))
