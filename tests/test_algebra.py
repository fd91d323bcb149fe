import random
from fractions import Fraction

import pytest

import oracles
from expobs import algebra
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
    omega_h_table,
    transport,
)
from expobs.errors import HorizonExceeded, NonConvergent, NotAConjugacy
from expobs.exact import INF, GaussianRational
from expobs.library import rotation_grid
from expobs.model import FiniteSystem, Observable
from expobs.relations import delta_star
from expobs.sampling import random_system


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


class TestCountBudgets:
    def test_trials_up_to_the_limit_run(self, l4, monkeypatch):
        monkeypatch.setattr(algebra, "LAW_TRIAL_LIMIT", 3)
        assert law_suite(l4, trials=3, seed=0).checks == 15
        with pytest.raises(HorizonExceeded, match="trials = 4 is over the limit of 3"):
            law_suite(l4, trials=4, seed=0)

    def test_samples_up_to_the_limit_run(self, l4, monkeypatch):
        monkeypatch.setattr(algebra, "CONJUGACY_SAMPLE_LIMIT", 3)
        conj = Conjugacy.build(l4, l4, {p: p for p in l4.points})
        assert len(conjugacy_invariance_report(conj, samples=3).entries) == 3
        with pytest.raises(HorizonExceeded, match="samples = 4 is over the limit of 3"):
            conjugacy_invariance_report(conj, samples=4)


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

    def test_transfer_violations_match_the_scan(self, small_corpus):
        """The two bisections against a scan of every omega_h entry, for each
        corpus system conjugated along f to its copy with the metric halved,
        with both constants drawn from 0, INF, every t and omega_h(t), and
        the midpoints of consecutive t."""
        found = 0
        for system in small_corpus[:12]:
            along_f = {p: system.apply(p) for p in system.points}
            halved = FiniteSystem.build(
                system.points, [[v / 2 for v in row] for row in system.metric], along_f
            )
            table = omega_h_table(Conjugacy.build(system, halved, along_f))
            ts = [t for t, _ in table]
            values = [Fraction(0), INF, *ts, *(w for _, w in table)]
            values += [(a + b) / 2 for a, b in zip(ts, ts[1:])]
            for d_tgt in values:
                for d_src in values:
                    lines = algebra._transfer_violations(3, table, d_tgt, d_src)
                    assert lines == oracles.scan_transfer_violations(3, table, d_tgt, d_src)
                    found += len(lines)
        assert found > 1000

    def test_report_lists_violations_in_scan_order(self, l4, monkeypatch):
        """With every target constant tripled and every source constant
        forced to 0, the report's lines are the scan's, observable by
        observable."""
        conj = Conjugacy.build(l4, doubled_l4(l4), {p: p for p in l4.points})
        real = algebra.delta_star
        monkeypatch.setattr(
            algebra, "delta_star",
            lambda system, phi: 3 * real(system, phi) if system is conj.target else Fraction(0),
        )
        report = conjugacy_invariance_report(conj, seed=2, samples=6)
        expected = [
            line
            for idx, (d_tgt, d_src) in enumerate(report.entries)
            for line in oracles.scan_transfer_violations(idx, report.omega_table, d_tgt, d_src)
        ]
        assert expected and list(report.violations) == expected

    def test_is_isometry_matches_fraction_comparison(self, small_corpus):
        """Each corpus system against itself (by the identity and along f), a
        relabelled conjugate, a copy with its metric halved, and a copy with
        an unrelated metric."""
        outcomes = {True: 0, False: 0, "same scale, not isometric": 0}
        for idx, system in enumerate(small_corpus):
            rng = random.Random(idx)
            identity = {p: p for p in system.points}
            along_f = {p: system.apply(p) for p in system.points}
            names = [f"r{i}" for i in range(system.n)]
            rng.shuffle(names)
            relabel = dict(zip(system.points, names))
            order = sorted(range(system.n), key=names.__getitem__)
            relabelled = FiniteSystem.build(
                [names[i] for i in order],
                [[system.metric[i][j] for j in order] for i in order],
                {relabel[p]: relabel[system.apply(p)] for p in system.points},
            )
            halved = FiniteSystem.build(
                system.points, [[v / 2 for v in row] for row in system.metric], along_f
            )
            other = random_system(rng, system.n, system.n)
            remetric = FiniteSystem.build(system.points, other.metric, along_f)
            cases = [
                (system, identity),
                (system, along_f),
                (relabelled, relabel),
                (halved, identity),
                (remetric, identity),
            ]
            for target, mapping in cases:
                conj = Conjugacy.build(system, target, mapping)
                expected = oracles.fraction_is_isometry(conj)
                assert conj.is_isometry() == expected
                outcomes[expected] += 1
                if system.int_metric[1] == target.int_metric[1] and not expected:
                    outcomes["same scale, not isometric"] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_omega_h_table_matches_brute_force(self, small_corpus):
        """Conjugacies of each corpus system to itself along f, and to a copy
        with the same dynamics and an unrelated metric."""
        for idx, system in enumerate(small_corpus):
            along_f = {p: system.apply(p) for p in system.points}
            other = random_system(random.Random(idx), system.n, system.n)
            remetric = FiniteSystem.build(system.points, other.metric, along_f)
            for target in (system, remetric):
                conj = Conjugacy.build(system, target, along_f)
                table = omega_h_table(conj)
                realized = system.realized_distances()
                assert [t for t, _ in table] == list(realized)
                for t, w in table:
                    assert w == oracles.brute_omega_h(conj, t)
                between = [(a + b) / 2 for a, b in zip(realized, realized[1:])]
                for t in [Fraction(-1), Fraction(0), *between, realized[-1] + 1]:
                    assert omega_h(conj, t) == oracles.brute_omega_h(conj, t)
