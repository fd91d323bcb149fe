import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expobs import relations
from expobs.exact import INF, GaussianRational
from expobs.library import rotation_grid
from expobs.model import FiniteSystem, Observable, distance_observable
from expobs.relations import (
    chain_components,
    delta_star,
    e_star,
    fixed_points,
    gamma_k,
    indistinguishability_quotient,
    is_constant_on_blocks,
    omega_map,
    omega_map_table,
    omega_obs,
    omega_obs_table,
    orbit_distance_table,
    pair_cycles,
    periodic_level_report,
    pointwise_constants,
    power_system,
    sigma_star,
)
from expobs.sampling import random_observable, random_system


def probe_thresholds(system):
    """0, each realized distance, a point between each neighbouring pair of
    them, and one point above the largest."""
    realized = system.realized_distances()
    between = [(a + b) / 2 for a, b in zip(realized, realized[1:])]
    return [Fraction(0), *realized, *between, realized[-1] + 1]


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
        assert table.dist("0,0", "2,3") == oracles.brute_orbit_sup(
            cat5, cat5.index("0,0"), cat5.index("2,3")
        )

    def test_single_pair_walk_finds_a_later_maximum(self, cat5, small_corpus):
        # Pairs whose orbit maximum is not their own distance, so a walk
        # that stopped after its first step would miss it.
        later = [
            (system, i, j)
            for system in (cat5, *small_corpus)
            for i in range(system.n)
            for j in range(i + 1, system.n)
            if system.metric[i][j] < oracles.brute_orbit_sup(system, i, j)
        ]
        assert len(later) > 100
        for system, i, j in later:
            x, y = system.points[i], system.points[j]
            table = orbit_distance_table(system)
            assert table.dist(x, y) == oracles.brute_orbit_sup(system, i, j)

    def test_min_pair_distance_positive(self, l4):
        assert oracles.min_pair_distance(l4, "0", "3") > 0
        assert oracles.min_pair_distance(l4, "0", "0") == 0


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

    def test_threshold_zero_gives_singletons(self, l4, cat5, small_corpus):
        # Distinct points have D > 0, so no pair joins a block at 0.
        for system in (l4, cat5, *small_corpus):
            q = indistinguishability_quotient(system, Fraction(0))
            assert q.threshold == 0
            assert q.blocks == tuple((p,) for p in system.points)
            assert q.blocks == oracles.brute_quotient_blocks(system, Fraction(0))

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
            quotient = indistinguishability_quotient(system, delta)
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
        realized = cat5.realized_distances()
        values = [omega_map(cat5, t) for t in realized]
        assert values == sorted(values)
        assert omega_map(cat5, Fraction(0)) == 0

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


class TestDistanceSweep:
    """The sorted-pair sweeps against per-t brute force."""

    def test_distance_groups(self, small_corpus):
        rng = random.Random(1409)
        tied = [oracles.tied_system(rng, n) for n in (2, 3, 5, 8, 12) for _ in range(4)]
        for system in [*small_corpus, *tied]:
            groups = system.distance_groups
            pairs = [pair for _, group in groups for pair in group]
            assert tuple(pairs) == oracles.brute_pairs_by_distance(system)
            ts = [t for t, _ in groups]
            assert all(a < b for a, b in zip(ts, ts[1:]))
            assert all(system.metric[i][j] == t for t, group in groups for i, j in group)
            dists = [system.metric[i][j] for i, j in pairs]
            assert dists == sorted(dists)
            assert sorted(pairs) == [
                (i, j) for i in range(system.n) for j in range(i + 1, system.n)
            ]

    def test_omega_map_table(self, small_corpus):
        for system in small_corpus:
            table = omega_map_table(system)
            assert [t for t, _ in table] == list(system.realized_distances())
            for t, w in table:
                assert w == oracles.brute_omega_map(system, t)
            for t in probe_thresholds(system):
                assert omega_map(system, t) == oracles.brute_omega_map(system, t)

    def test_omega_obs_table(self, small_corpus, observables_for):
        for idx, system in enumerate(small_corpus):
            for phi in observables_for(system, 2, seed=300 + idx):
                table = omega_obs_table(system, phi)
                assert [t for t, _ in table] == list(system.realized_distances())
                for t, w in table:
                    assert w == oracles.brute_omega_obs(system, phi, t)
                for t in probe_thresholds(system):
                    assert omega_obs(system, phi, t) == oracles.brute_omega_obs(
                        system, phi, t
                    )

    def test_negative_threshold_rejected(self, l4):
        phi = distance_observable(l4, "0")
        with pytest.raises(ValueError):
            omega_map(l4, Fraction(-1))
        with pytest.raises(ValueError):
            omega_obs(l4, phi, Fraction(-1))

    def test_gamma_k(self, small_corpus):
        for system in small_corpus:
            # Also a third of a metric unit either side of each realized
            # distance, where e * scale is not an int.
            step = Fraction(1, 3 * system.int_metric[1])
            off_grid = [t + s for t in system.realized_distances() for s in (-step, step)]
            for e in probe_thresholds(system) + off_grid:
                for k in (1, 2, 3, 5):
                    assert gamma_k(system, k, e) == oracles.brute_gamma_k(system, k, e)

    def test_chain_components(self, small_corpus):
        for system in small_corpus:
            for t in probe_thresholds(system):
                assert chain_components(system, t) == oracles.brute_chain_components(
                    system, t
                )


class TestPowersAndPeriodicLevels:
    def test_power_system_matches_iteration(self, small_corpus):
        for system in small_corpus:
            for k in range(-12, 13):
                if k:
                    assert power_system(system, k).perm == oracles.brute_power_perm(
                        system, k
                    )
        with pytest.raises(ValueError):
            power_system(small_corpus[0], 0)

    def test_cached_powers_match_iteration(self, small_corpus, observables_for):
        """One power per exponent modulo the order, the system itself for f,
        fixed points from cycle lengths, and delta_star on a cached power as
        on an uncached system with the same map, which walks its own cycles."""
        for idx, system in enumerate(small_corpus):
            order = oracles.permutation_order(system)
            observables = observables_for(system, 2, seed=300 + idx)
            assert power_system(system, 1) is system
            for k in [*range(-2 * order, 0), *range(1, 2 * order + 1)]:
                power = power_system(system, k)
                perm = oracles.brute_power_perm(system, k)
                assert power.perm == perm
                for other in (k + order, k - order):
                    if other:
                        assert power_system(system, other) is power
                if k >= 1:
                    assert fixed_points(system, k) == tuple(
                        p for i, p in enumerate(system.points) if perm[i] == i
                    )
                assert power.int_metric is system.int_metric
                assert power._distances is system._distances
                fresh = FiniteSystem(system.points, system.int_metric, power.perm)
                assert power.orbit_cycles == fresh.orbit_cycles
                shared = {id(d) for d in system._distances.values()}
                assert all(id(d) in shared for d, _ in power.orbit_cycles)
                for phi in observables:
                    assert delta_star(power, phi) == delta_star(fresh, phi)
            with pytest.raises(ValueError):
                power_system(system, 0)

    def test_power_system_huge_exponent(self, small_corpus):
        for system in small_corpus:
            order = oracles.permutation_order(system)
            for k in (10**12, -(10**12) - 1):
                assert power_system(system, k).perm == oracles.brute_power_perm(
                    system, k % order
                )

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

    def test_violations_below_a_forced_power_threshold(
        self, small_corpus, observables_for, monkeypatch
    ):
        """The check itself, fed each realized distance t as the power's
        delta*: exactly the pairs closer than t with unequal values are
        reported.  A true delta* never yields one, so it is forced here."""
        forced = {}
        monkeypatch.setattr(relations, "delta_star", lambda power, phi: forced["t"])
        for idx, system in enumerate(small_corpus[:12]):
            k = oracles.permutation_order(system)
            for phi in observables_for(system, 2, seed=500 + idx):
                for t in system.realized_distances():
                    forced["t"] = t
                    rep = periodic_level_report(system, phi, k)
                    _, expected = oracles.brute_periodic_level(system, phi, k, t)
                    assert rep.violations == expected
                    assert rep.holds == (not expected)

    def test_periodic_levels_hold_on_corpus(self, small_corpus, observables_for):
        for idx, system in enumerate(small_corpus[:12]):
            for phi in observables_for(system, 2, seed=200 + idx):
                for k in range(1, 7):
                    rep = periodic_level_report(system, phi, k)
                    assert rep.holds, (idx, k)
                    assert len(rep.distinct_values) <= max(len(rep.fixed), 1)
