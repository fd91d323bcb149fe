from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expobs.errors import AlphabetMismatch, InvalidDocument, NoPairFound
from expobs.exact import GaussianRational
from expobs.shift import (
    CylinderObservable,
    EPPoint,
    SubshiftSpec,
    check_ball_inclusion,
    enumerate_points,
    find_asymptotic_pair,
    in_dynamical_ball,
    obs_stable_equiv,
    parse_cylinder_observable,
    parse_point,
    serialize_cylinder_observable,
    serialize_point,
    shift,
    snap_epsilon,
    stable_equiv,
    sym_distance,
    sym_orbit_sup,
)

ZERO = EPPoint.make("0")
ONE = EPPoint.make("1")
HOMOCLINIC = EPPoint.make("0", "1", "0")       # 0^inf . 1 . 0^inf
GLUE = EPPoint.make("0", "", "1")              # 0^inf . 1^inf
ALT = EPPoint.make("01")                       # (01)^inf

words = st.text(alphabet="01", min_size=1, max_size=4)
cores = st.text(alphabet="01", min_size=0, max_size=4)
offsets = st.integers(min_value=-5, max_value=5)
points = st.builds(EPPoint.make, words, cores, words, offsets)


class TestCanonicalization:
    def test_primitive_tails(self):
        p = EPPoint.make("0101", "", "111")
        assert p.left == "01" and p.right == "1"

    def test_core_absorption(self):
        # A core repeating the right tail in phase is no core at all.
        assert EPPoint.make("0", "1", "1") == EPPoint.make("0", "", "1")

    def test_same_bi_infinite_word_same_representation(self):
        # ...000.10^inf written two ways.
        a = EPPoint.make("0", "1", "0", offset=0)
        b = EPPoint.make("0", "10", "0", offset=0)
        assert a == b

    def test_rejects_empty_tail(self):
        with pytest.raises(InvalidDocument):
            EPPoint.make("")

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatch):
            EPPoint.make("0", "2", "0", alphabet="01")

    @settings(max_examples=200, deadline=None)
    @given(points, offsets)
    def test_canonical_form_is_stable(self, p, off):
        again = EPPoint.make(p.left, p.core, p.right, p.offset)
        assert again == p

    @settings(max_examples=200, deadline=None)
    @given(points, st.integers(min_value=-6, max_value=6))
    def test_representation_preserves_letters(self, p, i):
        q = EPPoint.make(p.left, p.core, p.right, p.offset)
        assert q.at(i) == p.at(i)


class TestShiftAction:
    @settings(max_examples=150, deadline=None)
    @given(points, st.integers(min_value=-4, max_value=4), offsets)
    def test_shift_moves_coordinates(self, p, n, i):
        assert shift(p, n).at(i) == p.at(i + n)

    @settings(max_examples=100, deadline=None)
    @given(points, st.integers(min_value=-4, max_value=4))
    def test_shift_inverts(self, p, n):
        assert shift(shift(p, n), -n) == p

    def test_shift_on_periodic_point_is_identity_up_to_phase(self):
        assert shift(ZERO, 3) == ZERO
        assert shift(ALT, 2) == ALT
        assert shift(ALT, 1) != ALT


class TestMetric:
    def test_frozen_examples(self):
        assert sym_distance(ZERO, HOMOCLINIC) == 1
        far = EPPoint.make("0", "0001", "0", offset=-4)
        # Deviation confined to coordinate -1: d = 1/2^1 ... check exactly.
        assert far.at(-1) == "1"
        assert sym_distance(ZERO, far) == Fraction(1, 2)

    def test_identity(self):
        assert sym_distance(ZERO, EPPoint.make("00")) == 0

    @settings(max_examples=150, deadline=None)
    @given(points, points)
    def test_symmetry(self, x, y):
        assert sym_distance(x, y) == sym_distance(y, x)

    @settings(max_examples=100, deadline=None)
    @given(points, points, points)
    def test_ultrametric(self, x, y, z):
        assert sym_distance(x, z) <= max(sym_distance(x, y), sym_distance(y, z))

    @settings(max_examples=150, deadline=None)
    @given(points, points)
    def test_shift_is_bi_lipschitz(self, x, y):
        d = sym_distance(x, y)
        moved = sym_distance(shift(x, 1), shift(y, 1))
        assert moved <= 2 * d
        assert moved >= d / 2

    @settings(max_examples=120, deadline=None)
    @given(points, points)
    def test_orbit_sup_is_one_for_distinct_points(self, x, y):
        expected = Fraction(0) if x == y else Fraction(1)
        assert sym_orbit_sup(x, y) == expected


class TestDynamicalBalls:
    def test_snap_epsilon(self):
        assert snap_epsilon(Fraction(1)) == 0
        assert snap_epsilon(Fraction(1, 2)) == 1
        assert snap_epsilon(Fraction(1, 3)) == 2
        assert snap_epsilon(Fraction(2, 3)) == 1

    def test_snap_rejects_nonpositive(self):
        with pytest.raises(Exception):
            snap_epsilon(Fraction(0))

    def test_membership_examples(self):
        # Radius 2^-k guards coordinates i >= -k (side s): the lone 1 of the
        # homoclinic point must already lie strictly in the past.
        past_one = shift(HOMOCLINIC, 1)   # the 1 sits at coordinate -1
        assert in_dynamical_ball(ZERO, past_one, Fraction(1), "s")
        assert not in_dynamical_ball(ZERO, HOMOCLINIC, Fraction(1), "s")
        assert not in_dynamical_ball(ZERO, past_one, Fraction(1, 2), "s")
        future_one = shift(HOMOCLINIC, -1)  # the 1 sits at coordinate +1
        assert in_dynamical_ball(ZERO, future_one, Fraction(1), "u")
        assert not in_dynamical_ball(ZERO, GLUE, Fraction(1), "s")
        assert in_dynamical_ball(ZERO, shift(GLUE, -1), Fraction(1), "u")

    @settings(max_examples=100, deadline=None)
    @given(points, points)
    def test_ball_respects_stability(self, x, y):
        # Membership at some epsilon for all shifts means tail equivalence
        # when the point is in the ball with the strict future criterion.
        if in_dynamical_ball(x, y, Fraction(1, 2), "s"):
            assert stable_equiv(x, y, "s")


class TestStableEquivalence:
    def test_sides(self):
        assert stable_equiv(ZERO, HOMOCLINIC, "s")
        assert stable_equiv(ZERO, HOMOCLINIC, "u")
        assert stable_equiv(ZERO, GLUE, "u")
        assert not stable_equiv(ZERO, GLUE, "s")
        assert not stable_equiv(ZERO, ONE, "s")

    @settings(max_examples=100, deadline=None)
    @given(points, points, st.sampled_from(("s", "u")))
    def test_equivalence_is_shift_invariant(self, x, y, side):
        if stable_equiv(x, y, side):
            assert stable_equiv(shift(x, 1), shift(y, 1), side)


class TestCylinderObservables:
    def test_injective_table_size(self):
        phi = CylinderObservable.injective(1, "01")
        assert len(phi.entries) == 8

    def test_eval_reads_window(self):
        phi = CylinderObservable.injective(1, "01")
        assert phi.eval_at(HOMOCLINIC, 0) == phi.value_of_word("010")
        assert phi.eval_at(HOMOCLINIC, 1) == phi.value_of_word("100")

    def test_document_round_trip(self):
        phi = CylinderObservable.injective(1, "01")
        again = parse_cylinder_observable(serialize_cylinder_observable(phi))
        assert again == phi

    def test_obs_stable_equiv(self):
        phi = CylinderObservable.injective(2, "01")
        assert obs_stable_equiv(ZERO, HOMOCLINIC, phi, "s")
        assert obs_stable_equiv(ZERO, HOMOCLINIC, phi, "u")
        assert obs_stable_equiv(ZERO, GLUE, phi, "u")
        assert not obs_stable_equiv(ZERO, GLUE, phi, "s")

    def test_missing_word_rejected(self):
        with pytest.raises(InvalidDocument):
            CylinderObservable.make(
                1, "01", {"000": GaussianRational.of(0)}
            )


class TestEnumeration:
    def test_counts_are_frozen(self):
        assert len(enumerate_points(("0", "1"), 6)) == 576
        assert len(enumerate_points(("0", "1"), 8)) == 4806

    def test_all_canonical_and_within_bound(self):
        pts = enumerate_points(("0", "1"), 5)
        for p in pts:
            assert p.size <= 5
            assert p == EPPoint.make(p.left, p.core, p.right, p.offset)
        assert len(set(pts)) == len(pts)

    def test_contains_standard_points(self):
        pts = enumerate_points(("0", "1"), 4)
        assert ZERO in pts
        assert ALT in pts
        assert HOMOCLINIC in pts


class TestBallInclusion:
    def test_full_shift_small(self):
        phi = CylinderObservable.injective(1, "01")
        report = check_ball_inclusion(
            EPPoint.make("0", alphabet="01"), phi, Fraction(1, 2), "s", 6
        )
        assert report.passed
        assert report.points_enumerated == 576
        assert report.points_in_ball > 0
        assert report.effective_eps == Fraction(1, 2)


class TestAsymptoticPairs:
    def test_full_shift_returns_homoclinic_pair(self):
        spec = SubshiftSpec.make("01")
        pair = find_asymptotic_pair(spec, 6)
        assert pair.x == ZERO
        assert pair.y == HOMOCLINIC

    def test_golden_mean_shift(self):
        spec = SubshiftSpec.make("01", ("11",))
        pair = find_asymptotic_pair(spec, 6)
        assert pair.x == ZERO
        assert pair.y == HOMOCLINIC

    def test_no_double_letter_shift_falls_back_one_sided(self):
        # Forbidding "10" kills homoclinic pairs; the glue point survives.
        spec = SubshiftSpec.make("01", ("10",))
        pair = find_asymptotic_pair(spec, 6, side="s")
        assert {pair.x, pair.y} == {GLUE, shift(GLUE, 1)}

    def test_unary_alphabet_has_no_pair(self):
        with pytest.raises(NoPairFound):
            find_asymptotic_pair(SubshiftSpec.make("0"), 6)

    def test_verifies_observables(self):
        spec = SubshiftSpec.make("01")
        observables = [
            CylinderObservable.injective(w, "01") for w in (0, 1, 2)
        ]
        pair = find_asymptotic_pair(spec, 6, observables)
        assert pair.verified_observables == 3


class TestPointDocuments:
    def test_round_trip(self):
        for p in (ZERO, HOMOCLINIC, GLUE, shift(ALT, 3)):
            assert parse_point(serialize_point(p)) == p

    def test_parse_validates(self):
        with pytest.raises(InvalidDocument):
            parse_point({"left": "0"})
        with pytest.raises(AlphabetMismatch):
            parse_point({"left": "0", "core": "7", "right": "0"}, alphabet="01")
