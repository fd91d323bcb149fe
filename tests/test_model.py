import json
import math
import random
from fractions import Fraction
from itertools import chain

import pytest

import oracles

from expobs.algebra import Conjugacy, conjugacy_invariance_report, law_suite
from expobs.errors import (
    DegenerateSpace,
    DomainMismatch,
    InvalidDocument,
    MalformedRational,
    MetricViolation,
    NotABijection,
    UnknownPoint,
)
from expobs.exact import GaussianRational
from expobs.model import (
    FiniteSystem,
    Observable,
    distance_observable,
    mesh,
    parse_observable,
    parse_system,
    serialize_observable,
    serialize_system,
)
from expobs.relations import gamma_k
from expobs.report import analyze, render_report
from expobs.sampling import random_observable

L4_DOC = {
    "points": ["a", "b", "c", "d"],
    "metric": [
        ["0", "1", "2", "3"],
        ["1", "0", "3", "2"],
        ["2", "3", "0", "1"],
        ["3", "2", "1", "0"],
    ],
    "map": {"a": "b", "b": "a", "c": "d", "d": "c"},
}


class TestParseSystem:
    def test_valid_document(self):
        s = parse_system(L4_DOC)
        assert s.n == 4
        assert s.apply("a") == "b" and s.apply("d") == "c"
        assert s.dist("a", "d") == 3

    def test_accepts_json_text(self):
        s = parse_system(json.dumps(L4_DOC))
        assert s.points == ("a", "b", "c", "d")

    def test_round_trip(self):
        s = parse_system(L4_DOC)
        assert parse_system(serialize_system(s)) == s

    def test_missing_key(self):
        with pytest.raises(InvalidDocument):
            parse_system({"points": ["a"], "metric": []})

    def test_rejects_asymmetric_metric(self):
        doc = dict(L4_DOC)
        doc["metric"] = [["0", "1"], ["2", "0"]]
        doc["points"] = ["a", "b"]
        doc["map"] = {"a": "a", "b": "b"}
        with pytest.raises(MetricViolation):
            parse_system(doc)

    def test_rejects_triangle_violation(self):
        doc = {
            "points": ["a", "b", "c"],
            "metric": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
            "map": {"a": "a", "b": "b", "c": "c"},
        }
        with pytest.raises(MetricViolation):
            parse_system(doc)

    def test_rejects_zero_off_diagonal(self):
        doc = {
            "points": ["a", "b"],
            "metric": [["0", "0"], ["0", "0"]],
            "map": {"a": "a", "b": "b"},
        }
        with pytest.raises(MetricViolation):
            parse_system(doc)

    def test_rejects_non_bijection(self):
        doc = dict(L4_DOC)
        doc["map"] = {"a": "b", "b": "b", "c": "d", "d": "c"}
        with pytest.raises(NotABijection):
            parse_system(doc)

    def test_rejects_map_off_space(self):
        doc = dict(L4_DOC)
        doc["map"] = {"a": "z", "b": "a", "c": "d", "d": "c"}
        with pytest.raises(NotABijection):
            parse_system(doc)

    def test_unknown_point_lookup(self):
        s = parse_system(L4_DOC)
        with pytest.raises(UnknownPoint):
            s.index("zebra")


def identity_document(metric):
    """A system document on points a, b, ... with this metric and f = id."""
    points = [chr(ord("a") + i) for i in range(len(metric))]
    return {"points": points, "metric": metric, "map": {p: p for p in points}}


class TestIngestMessages:
    """Each bad metric is refused with the same exception and message as
    before ingest validated on ints."""

    @pytest.mark.parametrize(
        "metric, error, message",
        [
            ([["0", "1"], ["1", "1/2"]], MetricViolation, "d(b,b) = 1/2, expected 0"),
            ([["0", "1", "2"], ["1", "0", "1"], ["2", "3/2", "0"]],
             MetricViolation, "asymmetry at (b,c): 1 vs 3/2"),
            ([["0", "0"], ["0", "0"]], MetricViolation, "nonpositive distance d(a,b) = 0"),
            ([["0", "-1/3"], ["-1/3", "0"]],
             MetricViolation, "nonpositive distance d(a,b) = -1/3"),
            ([["0", "1/2", "7/3"], ["1/2", "0", "5/4"], ["7/3", "5/4", "0"]],
             MetricViolation, "triangle inequality fails at (a,c,b): 7/3 > 1/2 + 5/4"),
            ([["0", True], [True, "0"]], MalformedRational, "not a rational literal: True"),
            ([["0", "1", "2"], ["1", "0", True], ["2", True, "0"]],
             MalformedRational, "not a rational literal: True"),
            ([["0", 1.5], [1.5, "0"]], MalformedRational, "not a rational literal: 1.5"),
            ([["0", "1/0"], ["1/0", "0"]], MalformedRational, "not a rational literal: '1/0'"),
            ([["0", ""], ["", "0"]], MalformedRational, "not a rational literal: ''"),
        ],
        ids=["diagonal", "asymmetry", "zero", "negative", "triangle", "true",
             "true-after-one", "float", "zero-denominator", "empty"],
    )
    def test_rejected_with_the_same_message(self, metric, error, message):
        with pytest.raises(error) as info:
            parse_system(identity_document(metric))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_int_str_and_fraction_rows_build_equal_systems(self, small_corpus):
        for system in small_corpus:
            mapping = {p: system.apply(p) for p in system.points}
            ints = system.int_metric[0]
            built = [
                FiniteSystem.build(
                    system.points, [[convert(x) for x in row] for row in ints], mapping
                )
                for convert in (int, str, Fraction)
            ]
            for other in built:
                assert other.metric == built[0].metric
                assert other.orbit_cycles == built[0].orbit_cycles
                assert other.int_metric == (ints, 1)
                assert other == built[0] and hash(other) == hash(built[0])
            text_rows = [[str(v) for v in row] for row in system.metric]
            from_text = FiniteSystem.build(system.points, text_rows, mapping)
            assert from_text.metric == system.metric
            assert from_text.orbit_cycles == system.orbit_cycles
            assert from_text == system and hash(from_text) == hash(system)
            assert math.gcd(system.int_metric[1], *chain.from_iterable(ints)) == 1

    def test_equal_distances_share_one_object(self):
        system = parse_system(identity_document(
            [["0", "1/2", "2/4"], ["1/2", "0", "1"], [Fraction(1, 2), "1", "0"]]
        ))
        halves = {id(v) for row in system.metric for v in row if v == Fraction(1, 2)}
        assert len(halves) == 1
        metric = system.metric
        for d, cycle in system.orbit_cycles:
            assert any(metric[i][j] is d for i, j in cycle)
        for t, pairs in system.distance_groups:
            assert all(metric[i][j] is t for i, j in pairs)


class TestSystemBasics:
    def test_inverse_perm(self, l4):
        inv = oracles.inverse_perm(l4)
        for i in range(l4.n):
            assert inv[l4.perm[i]] == i

    def test_mesh(self, l4, cat5):
        assert mesh(l4) == 1
        assert mesh(cat5) == Fraction(1, 5)

    def test_mesh_needs_two_points(self):
        one = FiniteSystem.build(("p",), [[Fraction(0)]], {"p": "p"})
        with pytest.raises(DegenerateSpace):
            mesh(one)

    def test_realized_distances_sorted_positive(self, cat5):
        vals = cat5.realized_distances()
        assert vals == tuple(sorted(vals))
        assert all(v > 0 for v in vals)

    def test_analysis_never_builds_the_fraction_matrix(self, small_corpus):
        rng = random.Random(29)
        for source in small_corpus[:8]:
            system, target = (parse_system(serialize_system(source)) for _ in range(2))
            observables = [random_observable(rng, system) for _ in range(2)]
            render_report(analyze(system, observables, seed=3))
            law_suite(system, trials=5, seed=3)
            conj = Conjugacy.build(system, target, {p: p for p in system.points})
            conjugacy_invariance_report(conj, observables, seed=3)
            gamma_k(system, 3, system.distance_groups[-1][0] / 2)
            assert "metric" not in vars(system)
            assert "metric" not in vars(target)


class TestObservable:
    def test_from_mapping_checks_domain(self, l4):
        with pytest.raises(DomainMismatch):
            Observable.from_mapping(l4, {"0": GaussianRational.of(1)})

    def test_parse_and_serialize(self, l4):
        doc = {"values": {"0": ["0", "0"], "1": ["0", "0"], "2": ["1", "0"], "3": ["1", "1"]}}
        phi = parse_observable(doc, l4)
        assert phi["3"] == GaussianRational.of(1, 1)
        again = parse_observable(serialize_observable(phi), l4)
        assert again == phi

    def test_parse_scalar_shorthand(self, l4):
        phi = parse_observable(
            {"values": {"0": "0", "1": "0", "2": "1", "3": "1"}}, l4
        )
        assert phi["2"] == GaussianRational.of(1)

    def test_equal_values_share_a_class_whatever_their_spelling(self, l4):
        phi = parse_observable(
            {"values": {"0": ["1/2", "0"], "1": "2/4", "2": ["2/4", "0"], "3": [1, 0]}}, l4
        )
        half, one = GaussianRational.of(Fraction(1, 2)), GaussianRational.of(1)
        assert (phi.levels[0], phi.class_values) == ((0, 0, 0, 1), (half, one))

    @pytest.mark.parametrize("literal", [True, [True, "0"], ["1", False], 1.0, ["1"]])
    def test_a_parsed_literal_does_not_admit_a_lookalike(self, l4, literal):
        values = {"0": "1", "1": ["1", "0"], "2": ["1", "0"], "3": literal}
        with pytest.raises(MalformedRational):
            parse_observable({"values": values}, l4)

    def test_entry_order_follows_system(self, l4):
        phi = parse_observable(
            {"values": {"3": "3", "2": "2", "1": "1", "0": "0"}}, l4
        )
        assert phi.points == l4.points

    def test_distance_observable(self, l4):
        phi = distance_observable(l4, "0")
        assert phi["0"].is_zero()
        assert phi["3"] == GaussianRational.of(3)


class TestTriangleCheck:
    """Ingest's integer triangle check against the plain Fraction triple loop."""

    @staticmethod
    def near_metric(rng, n):
        """Symmetric, positive, zero on the diagonal, with mixed denominators;
        a random share of the shortest-path repair is applied, so some come
        out metrics and some do not."""
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 5, 7, 9)))
                rows[i][j] = rows[j][i] = v
        repair = rng.random()
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    via = rows[i][k] + rows[k][j]
                    if via < rows[i][j] and rng.random() < repair:
                        rows[i][j] = rows[j][i] = via
        return rows

    def test_same_verdict_and_message_as_triple_loop(self):
        rng = random.Random(2718)
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(400):
            n = rng.randint(1, 9)
            rows = self.near_metric(rng, n)
            points = [f"p{i}" for i in range(n)]
            expected = oracles.triangle_violation(points, rows)
            if expected is None:
                FiniteSystem.build(points, rows, {p: p for p in points})
                outcomes["accepted"] += 1
            else:
                with pytest.raises(MetricViolation) as info:
                    FiniteSystem.build(points, rows, {p: p for p in points})
                assert str(info.value) == expected
                outcomes["rejected"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_distinct_prime_denominators_accepted(self):
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        n = 9
        rows = [[Fraction(0)] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), p in zip(pairs, primes):
            rows[i][j] = rows[j][i] = 1 + Fraction(1, p)
        points = [f"p{i}" for i in range(n)]
        system = FiniteSystem.build(points, rows, {p: p for p in points})
        assert oracles.triangle_violation(points, rows) is None
        assert system.metric == tuple(tuple(row) for row in rows)
