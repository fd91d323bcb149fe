import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expobs.exact import INF, GaussianRational
from expobs.library import rotation_grid
from expobs.model import Observable, distance_observable
from expobs.relations import (
    chain_components,
    delta_star,
    e_star,
    fixed_points,
    gamma_k,
    indistinguishability_quotient,
    is_constant_on_blocks,
    min_pair_distance,
    omega_map,
    omega_obs,
    orbit_distance_table,
    pair_cycles,
    pair_orbit_sup,
    periodic_level_report,
    pointwise_constants,
    power_system,
    sigma_star,
)
from expobs.sampling import random_observable, random_system


def seeded_systems(seed, count, max_points=8):
    rng = random.Random(seed)
    return [random_system(rng, 2, max_points) for _ in range(count)]


small_system = st.integers(min_value=0, max_value=10**6).map(
    lambda s: random_system(random.Random(s), 2, 7)
)


class TestOrbitDistance:
    def test_l4_frozen_table(self, l4):
        table = orbit_distance_table(l4)
        expected = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        assert [[int(v) for v in row] for row in table.values] == expected

    def test_pair_cycles_partition_pairs(self, cat5):
        seen = set()
        for cycle in pair_cycles(cat5):
            for pair in cycle:
                assert pair not in seen
                seen.add(pair)
        n = cat5.n
        assert len(seen) == n * (n - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(small_system)
    def test_table_matches_brute_force(self, system):
        table = orbit_distance_table(system)
        for i in range(system.n):
            for j in range(i + 1, system.n):
                assert table.values[i][j] == oracles.brute_orbit_sup(system, i, j)

    @settings(max_examples=40, deadline=None)
    @given(small_system)
    def test_orbit_sup_axioms(self, system):
        v = orbit_distance_table(system).values
        n = system.n
        for i in range(n):
            assert v[i][i] == 0
            for j in range(n):
                assert v[i][j] == v[j][i]
                assert v[i][j] >= system.metric[i][j]
                for k in range(n):
                    assert v[i][j] <= v[i][k] + v[k][j]

    @settings(max_examples=30, deadline=None)
    @given(small_system)
    def test_invariant_under_the_map(self, system):
        v = orbit_distance_table(system).values
        for i in range(system.n):
            for j in range(system.n):
                assert v[system.perm[i]][system.perm[j]] == v[i][j]

    def test_single_pair_walk_agrees(self, cat5):
        table = orbit_distance_table(cat5)
        assert pair_orbit_sup(cat5, "0,0", "2,3") == table.dist("0,0", "2,3")

    def test_min_pair_distance_positive(self, l4):
        assert min_pair_distance(l4, "0", "3") > 0
        assert min_pair_distance(l4, "0", "0") == 0


class TestSeparationConstants:
    def test_l4(self, l4):
        assert e_star(l4) == 1

    def test_cat5_vs_oracle(self, cat5):
        assert e_star(cat5) == Fraction(2, 5)
        assert oracles.brute_e_star(cat5) == Fraction(2, 5)

    def test_r8(self, r8):
        assert e_star(r8) == Fraction(1, 8)

    @settings(max_examples=60, deadline=None)
    @given(small_system)
    def test_common_constant_identity(self, system):
        expected = min(
            delta_star(system, distance_observable(system, x))
            for x in system.points
        )
        assert e_star(system) == expected

    def test_delta_star_constant_is_inf(self, l4):
        phi = Observable.constant(l4, GaussianRational.of(5))
        assert delta_star(l4, phi) is INF

    def test_delta_star_l4_split(self, l4):
        phi = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 0, 1, 1)]
        )
        assert delta_star(l4, phi) == 2
        swapped = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 1, 1, 0)]
        )
        assert delta_star(l4, swapped) == 1

    @settings(max_examples=50, deadline=None)
    @given(small_system, st.integers(min_value=0, max_value=10**6))
    def test_delta_star_vs_oracle(self, system, obs_seed):
        phi = random_observable(random.Random(obs_seed), system)
        assert delta_star(system, phi) == oracles.brute_delta_star(system, phi)

    def test_sigma_star_squared_modulus(self, l4):
        phi = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 0, 1, 1)]
        )
        assert sigma_star(l4, phi) == 1
        const = Observable.constant(l4, GaussianRational.of(2, 3))
        assert sigma_star(l4, const) is INF


class TestQuotients:
    def test_l4_blocks_at_one(self, l4):
        q = indistinguishability_quotient(l4, Fraction(1))
        assert q.blocks == (("0", "1"), ("2", "3"))

    def test_expansive_iff_constant_on_blocks(self, l4):
        q = indistinguishability_quotient(l4, Fraction(1))
        split = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 0, 1, 1)]
        )
        mixed = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 1, 1, 1)]
        )
        assert is_constant_on_blocks(split, q)
        assert not is_constant_on_blocks(mixed, q)

    @settings(max_examples=40, deadline=None)
    @given(small_system, st.integers(min_value=0, max_value=10**6))
    def test_membership_matches_level_set_oracle(self, system, obs_seed):
        rng = random.Random(obs_seed)
        phi = random_observable(rng, system)
        d_star = delta_star(system, phi)
        table = orbit_distance_table(system)
        realized = sorted(
            {
                table.values[i][j]
                for i in range(system.n)
                for j in range(i + 1, system.n)
            }
        )
        for delta in realized:
            fast = (d_star is INF) or d_star > delta
            assert fast == oracles.brute_is_expansive(system, phi, delta)
            quotient = indistinguishability_quotient(system, delta, table)
            assert fast == is_constant_on_blocks(phi, quotient)

    def test_equicontinuous_collapse(self):
        for n in (5, 8, 12):
            grid = rotation_grid(n)
            q = indistinguishability_quotient(grid, Fraction(1, n))
            assert len(q.blocks) == 1

    def test_chain_components_use_plain_metric(self, l4):
        assert len(chain_components(l4, Fraction(1))) == 1
        assert len(chain_components(l4, Fraction(1, 2))) == 4


class TestModuli:
    def test_omega_map_monotone(self, cat5):
        table = orbit_distance_table(cat5)
        realized = cat5.realized_distances()
        values = [omega_map(cat5, t, table) for t in realized]
        assert values == sorted(values)
        assert omega_map(cat5, Fraction(0), table) == 0

    def test_omega_map_at_full_range_is_max(self, l4):
        assert omega_map(l4, Fraction(3)) == 3

    def test_omega_obs_squared(self, l4):
        phi = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 2, 0, 0)]
        )
        assert omega_obs(l4, phi, Fraction(1)) == 4
        assert omega_obs(l4, phi, Fraction(0)) == 0

    def test_pointwise_constants(self, l4):
        consts = pointwise_constants(l4)
        assert consts == {"0": 1, "1": 1, "2": 1, "3": 1}
        assert min(consts.values()) == e_star(l4)

    @settings(max_examples=40, deadline=None)
    @given(small_system)
    def test_pointwise_min_is_e_star(self, system):
        assert min(pointwise_constants(system).values()) == e_star(system)


class TestPowersAndPeriodicLevels:
    def test_power_system_composition(self, cat5):
        sq = power_system(cat5, 2)
        for p in cat5.points:
            assert sq.apply(p) == cat5.apply(cat5.apply(p))

    def test_inverse_law(self, small_corpus, observables_for):
        for idx, system in enumerate(small_corpus[:15]):
            inverse = power_system(system, -1)
            for phi in observables_for(system, 3, seed=idx):
                assert delta_star(system, phi) == delta_star(inverse, phi)

    def test_power_law_with_gamma_floor(self, small_corpus, observables_for):
        for idx, system in enumerate(small_corpus[:10]):
            table = orbit_distance_table(system)
            realized = sorted(
                {
                    table.values[i][j]
                    for i in range(system.n)
                    for j in range(i + 1, system.n)
                }
            )
            for phi in observables_for(system, 2, seed=100 + idx):
                base = delta_star(system, phi)
                for k in (2, 3, 5):
                    powered = delta_star(power_system(system, k), phi)
                    if base is not INF:
                        assert (powered is INF) or powered <= base
                    for e in realized:
                        if base is INF or e < base:
                            g = gamma_k(system, k, e)
                            assert (powered is INF) or powered > g

    def test_fixed_points(self, l4):
        assert fixed_points(l4, 1) == ()
        assert fixed_points(l4, 2) == ("0", "1", "2", "3")

    def test_periodic_level_report(self, l4):
        phi = Observable.from_values(
            l4, [GaussianRational.of(v) for v in (0, 0, 1, 1)]
        )
        rep = periodic_level_report(l4, phi, 2)
        assert rep.holds
        assert rep.k == 2
        assert len(rep.fixed) == 4
        assert len(rep.distinct_values) == 2

    def test_periodic_levels_hold_on_corpus(self, small_corpus, observables_for):
        for idx, system in enumerate(small_corpus[:12]):
            for phi in observables_for(system, 2, seed=200 + idx):
                for k in range(1, 7):
                    rep = periodic_level_report(system, phi, k)
                    assert rep.holds, (idx, k)
                    assert len(rep.distinct_values) <= max(len(rep.fixed), 1)
