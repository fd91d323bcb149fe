"""Observables as level classes, and the pair cycles sorted by D.

The threshold queries read `FiniteSystem.orbit_cycles` sorted by orbit
sup-distance and compare the int class ids of `Observable.levels`; the algebra
combines values once per class.  Everything here is checked against the brute
oracles, which compare and combine the Gaussian rationals point by point.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from expobs.algebra import (
    Conjugacy,
    limit_stability_check,
    obs_add,
    obs_conjugate,
    obs_mul,
    obs_scale,
    transport,
)
from expobs.errors import DomainMismatch, UnknownPoint
from expobs.exact import GR_ZERO, INF, GaussianRational
from expobs.model import FiniteSystem, Observable, parse_observable, serialize_observable
from expobs.relations import (
    delta_star,
    e_star,
    indistinguishability_quotient,
    is_constant_on_blocks,
    omega_obs_table,
    pair_cycles,
    periodic_level_report,
    power_system,
    separated_pairs,
    sigma_star,
)
from expobs.sampling import PALETTE, PALETTE_INTS, random_observable, random_scalar


def shuffled(phi, rng):
    entries = list(phi.entries)
    rng.shuffle(entries)
    return Observable(tuple(entries))


def parsed(phi):
    """phi through its JSON document, parsed without a system."""
    return parse_observable(json.dumps(serialize_observable(phi)))


def observable_forms(system, seed):
    """Observables in document order, shuffled, and parsed without a
    system, plus constants and an observable with one odd point."""
    rng = random.Random(seed)
    forms = []
    for _ in range(3):
        phi = random_observable(rng, system)
        forms += [phi, shuffled(phi, rng), parsed(shuffled(phi, rng))]
    odd = [GaussianRational.of(0)] * system.n
    odd[rng.randrange(system.n)] = GaussianRational.of(1, -2)
    forms.append(shuffled(Observable.from_values(system, odd), rng))
    for value in (GR_ZERO, GaussianRational.of(3, 7)):
        constant = Observable.constant(system, value)
        forms += [constant, parsed(shuffled(constant, rng))]
    return forms


def relabelled(system, rng):
    """The same system under new labels, listed in shuffled document order."""
    order = list(range(system.n))
    rng.shuffle(order)
    label = {p: f"r{p}" for p in system.points}
    points = [label[system.points[i]] for i in order]
    rows = [[system.metric[i][j] for j in order] for i in order]
    mapping = {label[p]: label[system.apply(p)] for p in system.points}
    return FiniteSystem.build(points, rows, mapping), label


class TestLevelQueries:
    def test_delta_star(self, small_corpus):
        for idx, system in enumerate(small_corpus):
            for phi in observable_forms(system, 500 + idx):
                assert delta_star(system, phi) == oracles.brute_delta_star(system, phi)

    def test_sigma_star(self, small_corpus):
        for idx, system in enumerate(small_corpus):
            for phi in observable_forms(system, 600 + idx):
                assert sigma_star(system, phi) == oracles.brute_sigma_star(system, phi)

    def test_constants_give_inf(self, small_corpus):
        for system in small_corpus:
            phi = parsed(Observable.constant(system, GaussianRational.of(1, 1)))
            assert delta_star(system, phi) is INF
            assert sigma_star(system, phi) is INF
            assert oracles.brute_sigma_star(system, phi) is INF

    def test_omega_obs_table(self, small_corpus):
        for idx, system in enumerate(small_corpus):
            for phi in observable_forms(system, 700 + idx):
                table = omega_obs_table(system, phi)
                assert [t for t, _ in table] == list(system.realized_distances())
                for t, w in table:
                    assert w == oracles.brute_omega_obs(system, phi, t)

    def test_separated_pairs(self, small_corpus):
        for idx, system in enumerate(small_corpus):
            for phi in observable_forms(system, 800 + idx):
                assert separated_pairs(system, phi) == oracles.brute_separated_pairs(
                    system, phi
                )

    def test_periodic_levels(self, small_corpus):
        for idx, system in enumerate(small_corpus[:20]):
            for phi in observable_forms(system, 900 + idx)[:6]:
                for k in (1, 2, 3):
                    report = periodic_level_report(system, phi, k)
                    expected = oracles.brute_periodic_level(
                        system, phi, k, report.delta_star_power
                    )
                    assert (report.distinct_values, report.violations) == expected

    def test_constant_on_blocks_unknown_point(self, l4):
        quotient = indistinguishability_quotient(l4, 3)
        partial = Observable(tuple((p, GR_ZERO) for p in l4.points[:3]))
        with pytest.raises(UnknownPoint):
            is_constant_on_blocks(partial, quotient)


class TestObservableLevels:
    def test_ids_by_first_appearance(self):
        a, b, c = (GaussianRational.of(v) for v in (2, 0, 1))
        phi = Observable((("x", a), ("y", b), ("z", a), ("w", c), ("v", b)))
        assert (phi.levels[0], phi.class_values) == ((0, 1, 0, 2, 1), (a, b, c))

    def test_entries_match_their_levels(self, small_corpus):
        rng = random.Random(41)
        for system in small_corpus:
            phi, psi = random_observable(rng, system), random_observable(rng, system)
            lam = random_scalar(rng)
            psi_shuffled = shuffled(psi, rng)
            conj = Conjugacy.build(system, system, {p: system.apply(p) for p in system.points})
            for result in (
                phi,
                obs_add(phi, psi_shuffled),
                obs_mul(psi_shuffled, phi),
                obs_scale(lam, psi_shuffled),
                obs_scale(GR_ZERO, phi),
                obs_conjugate(phi),
                transport(conj, phi),
            ):
                # A fresh observable on the same entries computes its levels
                # from scratch.
                assert result.levels == Observable(result.entries).levels
                ids, values = result.levels[0], result.class_values
                assert [values[c] for c in ids] == list(result.values)

    def test_palette_observable_has_no_unused_class(self, small_corpus):
        rng = random.Random(43)
        for system in small_corpus:
            phi = random_observable(rng, system)
            ids, values = phi.levels[0], phi.class_values
            assert sorted(set(ids)) == list(range(len(values)))
            assert set(values) <= set(PALETTE)


class TestAlgebraPerClass:
    """Each operation equals its pointwise definition, entry for entry."""

    def test_operations_match_pointwise(self, small_corpus):
        rng = random.Random(47)
        for system in small_corpus:
            for _ in range(3):
                phi = random_observable(rng, system)
                psi = shuffled(random_observable(rng, system), rng)
                for lam in (random_scalar(rng), GR_ZERO):
                    assert obs_scale(lam, psi).entries == oracles.pointwise_map(
                        psi, lambda v: lam * v
                    ).entries
                for a, b in ((phi, psi), (psi, phi), (parsed(psi), phi)):
                    assert obs_add(a, b).entries == oracles.pointwise(
                        a, b, lambda x, y: x + y
                    ).entries
                    assert obs_mul(a, b).entries == oracles.pointwise(
                        a, b, lambda x, y: x * y
                    ).entries
                assert obs_conjugate(psi).entries == oracles.pointwise_map(
                    psi, GaussianRational.conjugate
                ).entries

    def test_zero_scale_is_one_class(self, l4):
        phi = Observable.from_values(l4, [GaussianRational.of(v) for v in (0, 1, 2, 3)])
        zero = obs_scale(GR_ZERO, phi)
        assert (zero.levels[0], zero.class_values) == ((0, 0, 0, 0), (GR_ZERO,))
        assert delta_star(l4, zero) is INF

    def test_transport_matches_pointwise(self, small_corpus):
        rng = random.Random(53)
        for system in small_corpus:
            target, label = relabelled(system, rng)
            conj = Conjugacy.build(system, target, label)
            phi = shuffled(random_observable(rng, target), rng)
            assert transport(conj, phi).entries == tuple(
                (y, phi[label[y]]) for y in system.points
            )


def wide_observable(rng, system, classes=4):
    """An observable on system whose values have denominators up to 12,
    drawn from a pool of `classes` values so that points share classes."""

    def part():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    pool = [GaussianRational(part(), part()) for _ in range(classes)]
    return Observable.from_values(system, [rng.choice(pool) for _ in system.points])


# Scalars off the palette, over denominators that share no factor with 12.
WIDE_SCALARS = (
    GaussianRational.of(Fraction(3, 7), Fraction(5, 11)),
    GaussianRational.of(Fraction(-4, 9), Fraction(1, 6)),
    GaussianRational.of(5),
    GR_ZERO,
)


def assert_canonical(phi):
    """phi's levels are the ones its entries give from scratch, and in
    lowest terms."""
    assert phi.levels == Observable(phi.entries).levels
    ids, ints, scale = phi.levels
    assert scale >= 1
    assert math.gcd(scale, *(x for pair in ints for x in pair)) == 1
    assert sorted(set(ids)) == list(range(len(ints)))


class TestIntForm:
    """Class values as Gaussian integers over one canonical scale, against
    the pointwise Gaussian-rational references of `oracles`."""

    def test_operations_match_pointwise(self, small_corpus):
        rng = random.Random(79)
        for system in small_corpus:
            for _ in range(3):
                phi = wide_observable(rng, system)
                psi = shuffled(wide_observable(rng, system, rng.randint(1, 5)), rng)
                for lam in WIDE_SCALARS + (random_scalar(rng),):
                    result = obs_scale(lam, psi)
                    assert result.entries == oracles.pointwise_map(
                        psi, lambda v: lam * v
                    ).entries
                    assert_canonical(result)
                for a, b in ((phi, psi), (psi, phi), (parsed(psi), phi)):
                    for result, op in (
                        (obs_add(a, b), lambda x, y: x + y),
                        (obs_mul(a, b), lambda x, y: x * y),
                    ):
                        assert result.entries == oracles.pointwise(a, b, op).entries
                        assert_canonical(result)
                result = obs_conjugate(psi)
                assert result.entries == oracles.pointwise_map(
                    psi, GaussianRational.conjugate
                ).entries
                assert_canonical(result)

    def test_parsed_and_built_forms_are_canonical(self, small_corpus):
        rng = random.Random(83)
        for system in small_corpus:
            phi = wide_observable(rng, system)
            for form in (
                phi,
                parsed(shuffled(phi, rng)),
                parse_observable(serialize_observable(phi), system),
                Observable.constant(system, GaussianRational.of(Fraction(3, 7), 2)),
                random_observable(rng, system),
            ):
                assert_canonical(form)
                ids, ints, scale = form.levels
                assert form.class_values == tuple(
                    GaussianRational(Fraction(re, scale), Fraction(im, scale))
                    for re, im in ints
                )

    def test_zero_is_one_class_over_scale_one(self, small_corpus):
        rng = random.Random(89)
        zero_form = ((0, 0),)
        for system in small_corpus:
            phi = wide_observable(rng, system)
            zero = ((0,) * system.n, zero_form, 1)
            minus_phi = obs_scale(GaussianRational.of(-1), phi)
            for result in (
                obs_scale(GR_ZERO, phi),
                obs_add(phi, shuffled(minus_phi, rng)),
                obs_mul(shuffled(phi, rng), Observable.constant(system, GR_ZERO)),
                Observable.constant(system, GR_ZERO),
                parsed(Observable.constant(system, GR_ZERO)),
            ):
                assert result.levels == zero

    def test_palette_ints_over_two(self):
        assert tuple(
            GaussianRational(Fraction(re, 2), Fraction(im, 2)) for re, im in PALETTE_INTS
        ) == PALETTE


class TestCycleOrder:
    def test_orbit_cycles_match_oracle(self, small_corpus):
        for system in small_corpus:
            assert system.orbit_cycles == oracles.brute_orbit_cycles(system)

    def test_sorted_with_ties_in_first_visit_order(self, small_corpus):
        for system in small_corpus:
            cycles = system.orbit_cycles
            for (d, cycle), (d_next, cycle_next) in zip(cycles, cycles[1:]):
                assert d <= d_next
                if d == d_next:
                    assert cycle[0] < cycle_next[0]
            for d, cycle in cycles:
                assert cycle[0] == min(cycle)
                assert d == max(system.metric[i][j] for i, j in cycle)

    def test_cycles_partition_pairs(self, small_corpus):
        for system in small_corpus:
            pairs = [pair for cycle in pair_cycles(system) for pair in cycle]
            assert sorted(pairs) == [
                (i, j) for i in range(system.n) for j in range(i + 1, system.n)
            ]
            assert [list(c) for _, c in system.orbit_cycles] == pair_cycles(system)

    def test_e_star_and_quotients(self, small_corpus):
        for system in small_corpus:
            assert e_star(system) == oracles.brute_e_star(system)
            realized = oracles.all_realized_orbit_sups(system)
            for delta in (realized[0] / 2, *realized):
                quotient = indistinguishability_quotient(system, delta)
                assert quotient.blocks == oracles.brute_quotient_blocks(system, delta)

    def test_is_isometry(self, small_corpus):
        rng = random.Random(59)
        for system in small_corpus:
            target, label = relabelled(system, rng)
            assert Conjugacy.build(system, target, label).is_isometry()
            along_f = Conjugacy.build(system, system, {p: system.apply(p) for p in system.points})
            assert along_f.is_isometry() == all(
                system.dist(a, b) == system.dist(system.apply(a), system.apply(b))
                for a in system.points
                for b in system.points
            )


def off_domain(phi):
    """phi missing its last point, with one extra point, and with its last
    point swapped for a foreign one."""
    entries = phi.entries
    return {
        "missing": Observable(entries[:-1]),
        "extra": Observable(entries + (("extra", GR_ZERO),)),
        "swapped": Observable(entries[:-1] + (("extra", entries[-1][1]),)),
    }


class TestDomainChecks:
    """Every query lines phi up with the system's points, and refuses an
    observable defined on other points."""

    QUERIES = (
        "delta_star",
        "sigma_star",
        "omega_obs_table",
        "periodic_level_report",
        "separated_pairs",
        "obs_add",
        "obs_add_reversed",
        "transport",
        "limit_stability_check",
    )

    @staticmethod
    def query(name, system, phi):
        along_f = Conjugacy.build(system, system, {p: system.apply(p) for p in system.points})
        return {
            "delta_star": lambda bad: delta_star(system, bad),
            "sigma_star": lambda bad: sigma_star(system, bad),
            "omega_obs_table": lambda bad: omega_obs_table(system, bad),
            "periodic_level_report": lambda bad: periodic_level_report(system, bad, 2),
            "separated_pairs": lambda bad: separated_pairs(system, bad),
            "obs_add": lambda bad: obs_add(phi, bad),
            "obs_add_reversed": lambda bad: obs_add(bad, phi),
            "transport": lambda bad: transport(along_f, bad),
            "limit_stability_check": lambda bad: limit_stability_check(system, [phi, bad], 0),
        }[name]

    @pytest.mark.parametrize("name", QUERIES)
    def test_refuses_other_points(self, name, small_corpus):
        rng = random.Random(61)
        for system in small_corpus[:10]:
            phi = random_observable(rng, system)
            run = self.query(name, system, phi)
            for bad in off_domain(phi).values():
                with pytest.raises(DomainMismatch):
                    run(bad)


class TestStoredForm:
    def test_entries_rebuild_an_equal_observable(self, small_corpus):
        rng = random.Random(71)
        for system in small_corpus:
            phi, psi = random_observable(rng, system), random_observable(rng, system)
            conj = Conjugacy.build(system, system, {p: system.apply(p) for p in system.points})
            forms = observable_forms(system, rng.randrange(10**6)) + [
                parse_observable(serialize_observable(phi), system),
                obs_add(phi, shuffled(psi, rng)),
                obs_mul(shuffled(psi, rng), phi),
                obs_scale(random_scalar(rng), phi),
                obs_conjugate(shuffled(phi, rng)),
                transport(conj, phi),
            ]
            for form in forms:
                again = Observable(form.entries)
                assert again == form
                assert hash(again) == hash(form)
                assert (again.points, again.levels) == (form.points, form.levels)

    def test_equality_follows_entry_order(self, l4):
        phi = Observable.from_values(l4, [GaussianRational.of(v) for v in (0, 1, 1, 2)])
        reordered = Observable(reversed(phi.entries))
        assert reordered != phi
        assert [reordered[p] for p in l4.points] == [phi[p] for p in l4.points]

    def test_built_on_a_system_share_its_points(self, small_corpus):
        rng = random.Random(73)
        for system in small_corpus:
            target, label = relabelled(system, rng)
            phi = random_observable(rng, system)
            built = [
                phi,
                parse_observable(json.dumps(serialize_observable(phi)), system),
                Observable.from_mapping(system, dict(phi.entries)),
                Observable.from_values(system, phi.values),
                Observable.constant(system, GR_ZERO),
                obs_add(phi, shuffled(phi, rng)),
                obs_scale(random_scalar(rng), phi),
                transport(Conjugacy.build(system, target, label), random_observable(rng, target)),
            ]
            for form in built:
                assert form.points is system.points
            assert power_system(system, 2).points is system.points
