from fractions import Fraction

import pytest

from expobs.algebra import (
    Conjugacy,
    conjugacy_invariance_report,
    law_suite,
    limit_stability_check,
    obs_add,
    obs_conjugate,
    obs_mul,
    obs_scale,
    omega_h,
    transport,
)
from expobs.errors import NonConvergent, NotAConjugacy
from expobs.exact import INF, GaussianRational
from expobs.library import rotation_grid
from expobs.model import FiniteSystem, Observable
from expobs.relations import delta_star


def split(system, *values):
    return Observable.from_values(
        system, [GaussianRational.of(v) for v in values]
    )


class TestPointwiseOps:
    def test_add_mul_scale_conj(self, l4):
        phi = split(l4, 0, 1, 2, 3)
        psi = split(l4, 1, 1, 1, 1)
        assert obs_add(phi, psi)["3"] == GaussianRational.of(4)
        assert obs_mul(phi, phi)["2"] == GaussianRational.of(4)
        lam = GaussianRational.of(0, 1)
        assert obs_scale(lam, phi)["1"] == GaussianRational.of(0, 1)
        mixed = Observable.from_values(
            l4, [GaussianRational.of(1, v) for v in range(4)]
        )
        assert obs_conjugate(mixed)["3"] == GaussianRational.of(1, -3)


class TestLawSuite:
    def test_zero_violations_on_examples(self, l4, cat5):
        for system in (l4, cat5):
            report = law_suite(system, trials=60, seed=11)
            assert report.passed
            assert report.checks == 300
            assert report.violations == ()

    def test_zero_violations_on_corpus(self, small_corpus):
        for idx, system in enumerate(small_corpus[:10]):
            assert law_suite(system, trials=20, seed=idx).passed

    def test_document_shape(self, l4):
        doc = law_suite(l4, trials=5, seed=0).to_document()
        assert doc["passed"] is True
        assert doc["trials"] == 5
        assert isinstance(doc["sigma_sum_notes"], list)

    def test_hand_checked_laws(self, l4):
        phi = split(l4, 0, 0, 1, 1)   # delta* = 2
        psi = split(l4, 0, 1, 1, 0)   # delta* = 1
        floor = Fraction(1)
        assert delta_star(l4, obs_add(phi, psi)) >= floor
        assert delta_star(l4, obs_mul(phi, psi)) >= floor
        assert delta_star(l4, obs_scale(GaussianRational.of(7), phi)) == 2
        assert delta_star(l4, obs_scale(GaussianRational.of(0), phi)) is INF
        assert delta_star(l4, obs_conjugate(phi)) == 2


class TestLimitStability:
    def test_stable_sequence(self, l4):
        seq = [split(l4, 0, 0, k, k) for k in (1, 2, 3, 3)]
        report = limit_stability_check(l4, seq, Fraction(1))
        assert report.holds
        assert report.delta_star_limit == 2

    def test_rejects_moving_separation_pattern(self, l4):
        seq = [split(l4, 0, 0, 1, 1), split(l4, 0, 1, 1, 1)]
        with pytest.raises(NonConvergent):
            limit_stability_check(l4, seq, Fraction(1, 2))

    def test_rejects_non_expansive_elements(self, l4):
        seq = [split(l4, 0, 1, 0, 1), split(l4, 0, 1, 0, 1)]
        with pytest.raises(ValueError):
            limit_stability_check(l4, seq, Fraction(2))


def relabeled_l4(l4):
    names = {"0": "p", "1": "q", "2": "r", "3": "s"}
    points = tuple(names[p] for p in l4.points)
    mapping = {names[p]: names[l4.apply(p)] for p in l4.points}
    return (
        FiniteSystem.build(points, [list(r) for r in l4.metric], mapping),
        names,
    )


def doubled_l4(l4):
    rows = [[2 * v for v in row] for row in l4.metric]
    mapping = {p: l4.apply(p) for p in l4.points}
    return FiniteSystem.build(l4.points, rows, mapping)


class TestConjugacy:
    def test_build_rejects_non_intertwiner(self, l4, r8):
        with pytest.raises(NotAConjugacy):
            Conjugacy.build(l4, r8, {})
        bad = {"0": "0", "1": "1", "2": "2", "3": "3"}
        ident = FiniteSystem.build(
            l4.points, [list(r) for r in l4.metric], {p: p for p in l4.points}
        )
        with pytest.raises(NotAConjugacy):
            Conjugacy.build(l4, ident, bad)

    def test_relabeled_isometric_spectra_match(self, l4, observables_for):
        target, names = relabeled_l4(l4)
        conj = Conjugacy.build(l4, target, names)
        assert conj.is_isometry()
        report = conjugacy_invariance_report(conj, seed=5, samples=6)
        assert report.passed
        for d_tgt, d_src in report.entries:
            assert d_tgt == d_src

    def test_metric_doubling_scales_delta_star(self, l4, observables_for):
        doubled = doubled_l4(l4)
        conj = Conjugacy.build(
            doubled, l4, {p: p for p in l4.points}
        )
        assert not conj.is_isometry()
        for phi in observables_for(l4, 8, seed=21):
            pulled = transport(conj, phi)
            d_base = delta_star(l4, phi)
            d_doubled = delta_star(doubled, pulled)
            if d_base is INF:
                assert d_doubled is INF
            else:
                assert d_doubled == 2 * d_base

    def test_omega_h_identity_map(self, l4):
        ident = Conjugacy.build(
            l4, l4, {p: p for p in l4.points}
        )
        for t in l4.realized_distances():
            assert omega_h(ident, t) == t

    def test_invariance_report_flags_distortion(self, l4):
        doubled = doubled_l4(l4)
        conj = Conjugacy.build(l4, doubled, {p: p for p in l4.points})
        report = conjugacy_invariance_report(conj, seed=2, samples=6)
        assert report.passed
        assert not report.isometry
        assert report.omega_table == tuple(
            (t, 2 * t) for t in l4.realized_distances()
        )
