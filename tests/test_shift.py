import gc
import json
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expobs import shift as shift_module
from expobs.errors import AlphabetMismatch, HorizonExceeded, InvalidDocument, NoPairFound
from expobs.exact import GaussianRational
from expobs.shift import (
    CylinderObservable,
    EPPoint,
    SubshiftSpec,
    check_ball_inclusion,
    ENUMERATION_LIMIT,
    _check_enumeration_budget,
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

    def test_alphabets_compare_as_letter_sets(self):
        x = EPPoint.make("0", alphabet="001")
        assert sym_distance(x, EPPoint.make("1", alphabet="01")) == 1
        assert sym_orbit_sup(x, EPPoint.make("0", alphabet="10")) == 0
        with pytest.raises(AlphabetMismatch):
            sym_distance(EPPoint.make("0", alphabet="01"), EPPoint.make("1", alphabet="012"))
        with pytest.raises(AlphabetMismatch):
            sym_orbit_sup(EPPoint.make("0", alphabet="01"), EPPoint.make("1", alphabet="012"))

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
        # The least k >= 0 with 2^-k <= eps, found by counting up.
        for a in range(1, 40):
            for b in range(1, 300):
                eps = Fraction(a, b)
                k = 0
                while Fraction(1, 2 ** k) > eps:
                    k += 1
                assert snap_epsilon(eps) == k, eps

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
        assert oracles.eval_at(phi, HOMOCLINIC, 0) == phi.value_of_word("010")
        assert oracles.eval_at(phi, HOMOCLINIC, 1) == phi.value_of_word("100")

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

    def test_raw_description_counts(self):
        counts = {(2, 9): 64_404, (2, 11): 434_052, (2, 12): 1_081_212,
                  (2, 20): 939_523_900, (3, 8): 398_556}
        for (letters, bound), count in counts.items():
            assert oracles.raw_description_count(letters, bound) == count

    def test_budget_raises_exactly_past_the_limit(self):
        for letters in (1, 2, 3):
            for bound in range(0, 21):
                if oracles.raw_description_count(letters, bound) > ENUMERATION_LIMIT:
                    with pytest.raises(HorizonExceeded):
                        _check_enumeration_budget(letters, bound)
                else:
                    _check_enumeration_budget(letters, bound)

    @pytest.mark.parametrize("bound", [12, 10**9])
    def test_enumeration_over_budget_raises_before_building(self, bound):
        with pytest.raises(HorizonExceeded):
            enumerate_points(("0", "1"), bound)

    @pytest.mark.parametrize("alphabet, top", [(("0",), 9), (("0", "1"), 8), (("0", "1", "2"), 5)],
                             ids=["unary", "binary", "ternary"])
    def test_matches_brute_enumeration(self, alphabet, top):
        # Same points in the same order, and each carries the alphabet.
        for bound in range(top + 1):
            fast = enumerate_points(alphabet, bound)
            brute = oracles.brute_enumerate(alphabet, bound)
            assert [(p.left, p.core, p.right, p.offset, p.alphabet) for p in fast] == [
                (p.left, p.core, p.right, p.offset, p.alphabet) for p in brute
            ], bound

    @pytest.mark.parametrize("letters, bound", [(100, 2), (20, 3)])
    def test_large_alphabet_builds_little_beyond_its_points(self, letters, bound):
        # Working tables stay within the budgeted descriptions.  A table of
        # cores of length bound - 1, which no point of size <= bound holds,
        # cost 8 times the points' own memory at 100 letters and bound 2.
        alphabet = tuple(chr(0x100 + i) for i in range(letters))
        enumerate_points.cache_clear()
        tracemalloc.start()
        try:
            pts = enumerate_points(alphabet, bound)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            enumerate_points.cache_clear()
        assert peak < 3 * kept
        assert pts == oracles.brute_enumerate(alphabet, bound)


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


RADII = (Fraction(2), Fraction(1), Fraction(1, 3), Fraction(1, 8), Fraction(1, 1000))


def _ball_cases():
    """Seeded bases with tails of length 1-3 and nonzero offsets: 120 over
    "01" at bounds 5-7, then 6 over "012" at bound 5.  Each base gets one
    radius per side, cycling through RADII (k = 0, 0, 2, 3, 10), so k runs
    from 0 to beyond the bound; its observable is a random non-constant
    table of window 0 or 1."""
    rng = random.Random(20261018)
    cases = []
    for i in range(126):
        alphabet, bound = ("01", 5 + i % 3) if i < 120 else ("012", 5)

        def word(lo, hi):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

        x = EPPoint.make(word(1, 3), word(0, 3), word(1, 3),
                         rng.choice((-3, -2, -1, 1, 2, 3)), alphabet)
        window = i % 2
        words = ["".join(w) for w in product(alphabet, repeat=2 * window + 1)]
        values = [rng.randint(0, 2) for _ in words]
        values[0], values[-1] = 0, 1
        phi = CylinderObservable.make(
            window, alphabet, {w: GaussianRational.of(v) for w, v in zip(words, values)}
        )
        for side in "su":
            cases.append((x, phi, RADII[(i + (side == "u")) % len(RADII)], side, bound))
    return cases


class TestBallInclusionOracle:
    """check_ball_inclusion against one in_dynamical_ball call per point."""

    def test_report_matches_brute_force(self, monkeypatch):
        for x, phi, eps, side, bound in _ball_cases():
            ball = oracles.brute_ball(x, eps, side, bound)
            report = check_ball_inclusion(x, phi, eps, side, bound)
            assert report.k == snap_epsilon(eps)
            assert report.points_enumerated == len(enumerate_points(x.alphabet, bound))
            assert report.points_in_ball == len(ball), (x, eps, side, bound)
            assert report.counterexamples == tuple(
                y for y in ball if not obs_stable_equiv(x, y, phi, side)
            )
            # A cylinder table cannot produce counterexamples (the theorem
            # the check confirms), so the in-ball list and its order are
            # read back through a convergence test that rejects every point.
            with monkeypatch.context() as patch:
                patch.setattr(shift_module, "obs_stable_equiv", lambda *args: False)
                rejected = check_ball_inclusion(x, phi, eps, side, bound)
            assert rejected.counterexamples == tuple(ball), (x, eps, side, bound)

    @pytest.mark.parametrize("alphabet, bound", [("0", 8), ("01", 5), ("012", 4)])
    def test_every_radius_matches_brute_force(self, monkeypatch, alphabet, bound):
        """Every k up to bound + 1 and two far past every core, both sides,
        around enumerated points and around points larger than the bound."""
        rng = random.Random(bound)
        pts = oracles.brute_enumerate(tuple(alphabet), bound)
        bases = rng.sample(pts, min(8, len(pts)))

        def word(lo, hi):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

        drawn = [EPPoint.make(word(1, 3), word(0, 4), word(1, 3), rng.randint(-9, 9), alphabet)
                 for _ in range(40)]
        # Over one letter every point is the fixed point, of size 2.
        bases += [x for x in drawn if x.size > bound][:8]
        assert len(bases) == (1 if alphabet == "0" else 16)
        phi = CylinderObservable.injective(0, alphabet)
        monkeypatch.setattr(shift_module, "obs_stable_equiv", lambda *args: False)
        for x in bases:
            for side in "su":
                for k in (*range(bound + 2), bound * bound + 1, 3 * bound * bound):
                    eps = Fraction(1, 2 ** k)
                    ball = tuple(oracles.brute_ball(x, eps, side, bound))
                    report = check_ball_inclusion(x, phi, eps, side, bound)
                    assert report.counterexamples == ball, (x, side, k)
                    assert report.points_in_ball == len(ball)

    @pytest.mark.parametrize("base", [
        EPPoint.make("10", "", "0100", alphabet="01"),
        EPPoint.make("01", alphabet="01"),
        EPPoint.make("011", "10110", "01", 4, alphabet="01"),
    ], ids=["coreless", "periodic", "past-bound"])
    def test_periodic_start_keys_match_brute_force(self, monkeypatch, base):
        """The coreless base is right-periodic from -1, below its boundary at
        0; the periodic base has no periodic start; the last base has size
        14.  Every k up to bound + 1 and one past every core, both sides."""
        bound = 7
        phi = CylinderObservable.injective(0, "01")
        monkeypatch.setattr(shift_module, "obs_stable_equiv", lambda *args: False)
        past_cores = bound + max(abs(base.start), abs(base.end)) + 1
        for side in "su":
            for k in (*range(bound + 2), past_cores):
                eps = Fraction(1, 2 ** k)
                ball = tuple(oracles.brute_ball(base, eps, side, bound))
                report = check_ball_inclusion(base, phi, eps, side, bound)
                assert report.counterexamples == ball, (side, k)
                assert report.points_in_ball == len(ball)

    def test_periodic_start_of_a_coreless_point(self):
        glued = EPPoint.make("10", "", "0100")   # ...1010|0100 0100...
        assert (glued.start, glued.end) == (0, 0)
        assert shift_module._right_periodic_start(glued) == -1
        assert shift_module._left_periodic_end(glued) == 0

    def test_report_survives_a_rebuilt_enumeration(self, monkeypatch):
        """Clearing the enumeration's cache, as the benchmark's set-up does,
        neither leaves the ball lookup on stale points nor keeps the old
        enumeration alive."""
        x = EPPoint.make("0", "1", "0", alphabet="01")
        phi = CylinderObservable.injective(1, "01")
        monkeypatch.setattr(shift_module, "obs_stable_equiv", lambda *args: False)
        for side in "su":
            before = check_ball_inclusion(x, phi, Fraction(1, 8), side, 7)
            old_zero = weakref.ref(enumerate_points(("0", "1"), 7)[0])
            assert old_zero() == ZERO and old_zero() not in before.counterexamples
            enumerate_points.cache_clear()
            gc.collect()
            assert old_zero() is None
            after = check_ball_inclusion(x, phi, Fraction(1, 8), side, 7)
            assert after == before and after.points_in_ball > 0
            current = {id(p) for p in enumerate_points(("0", "1"), 7)}
            assert all(id(y) in current for y in after.counterexamples)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            check_ball_inclusion(EPPoint.make("0", alphabet="01"),
                                 CylinderObservable.injective(0, "01"), Fraction(1), "x", 4)

    def test_error_order(self):
        # Alphabet, then radius, then enumeration budget, then side.
        phi = CylinderObservable.injective(0, "01")
        with pytest.raises(InvalidDocument):
            check_ball_inclusion(EPPoint.make("0"), phi, Fraction(0), "x", 20)
        with pytest.raises(ValueError, match="radius"):
            check_ball_inclusion(EPPoint.make("0", alphabet="01"), phi, Fraction(0), "x", 20)
        with pytest.raises(HorizonExceeded):
            check_ball_inclusion(EPPoint.make("0", alphabet="01"), phi, Fraction(1), "x", 20)


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


class TestPackageNamespace:
    def test_shift_names_the_module(self):
        import expobs

        assert expobs.shift is shift_module
        assert "shift" in expobs.__all__
        assert expobs.shift.enumerate_points is enumerate_points
        assert expobs.shift.shift is shift

    @staticmethod
    def loaded_by(fresh_interpreter, module) -> set:
        """The package's modules a fresh interpreter holds after importing
        one of them."""
        return set(fresh_interpreter(
            f"import sys, expobs.{module}; "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'expobs'))"
        ).split())

    def test_model_loads_only_what_it_imports(self, fresh_interpreter):
        assert self.loaded_by(fresh_interpreter, "model") == {
            "expobs", "expobs.errors", "expobs.exact", "expobs.model"
        }

    @pytest.mark.parametrize("module, unrelated", [
        ("algebra", ("circle", "shift", "cli", "svg", "report", "library")),
        ("shift", ("relations", "algebra", "circle")),
        ("circle", ("shift", "algebra", "cli")),
    ])
    def test_a_module_loads_no_unrelated_layer(self, fresh_interpreter, module, unrelated):
        loaded = self.loaded_by(fresh_interpreter, module)
        assert f"expobs.{module}" in loaded
        assert loaded.isdisjoint(f"expobs.{name}" for name in unrelated)

    def test_star_import_binds_every_submodule(self, fresh_interpreter):
        bound = json.loads(fresh_interpreter(
            "import json, sys; from expobs import *; import expobs; "
            "print(json.dumps({n: globals()[n] is sys.modules['expobs.' + n] "
            "for n in expobs.__all__}))"
        ))
        package = Path(shift_module.__file__).parent
        modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
        assert bound == dict.fromkeys(modules, True)
