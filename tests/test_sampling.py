import random
from fractions import Fraction

from expobs.relations import e_star, omega_map, orbit_distance_table
from expobs.sampling import (
    corpus,
    random_metric,
    random_observable,
    random_system,
)
from oracles import random_isometric_system


class TestRandomMetric:
    def test_triangle_inequality_repaired(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 9)
            rows = random_metric(rng, n)
            for i in range(n):
                assert rows[i][i] == 0
                for j in range(n):
                    assert rows[i][j] == rows[j][i]
                    if i != j:
                        assert rows[i][j] > 0
                    for k in range(n):
                        assert rows[i][j] <= rows[i][k] + rows[k][j]


class TestRandomSystems:
    def test_sizes_within_bounds(self):
        rng = random.Random(1)
        for _ in range(30):
            s = random_system(rng, 2, 12)
            assert 2 <= s.n <= 12
            assert sorted(s.perm) == list(range(s.n))

    def test_corpus_is_reproducible(self):
        a = corpus(seed=77, count=12, max_points=8)
        b = corpus(seed=77, count=12, max_points=8)
        assert a == b
        c = corpus(seed=78, count=12, max_points=8)
        assert a != c

    def test_isometric_systems_have_orbit_dist_equal_metric(self):
        rng = random.Random(9)
        for _ in range(25):
            s = random_isometric_system(rng, max_points=9)
            table = orbit_distance_table(s)
            assert table.values == s.metric

    def test_isometric_omega_is_identity_on_realized(self):
        rng = random.Random(10)
        s = random_isometric_system(rng, max_points=8)
        for t in s.realized_distances():
            assert omega_map(s, t) == t


class TestRandomObservables:
    def test_values_live_on_system_points(self):
        rng = random.Random(3)
        s = random_system(rng, 3, 6)
        phi = random_observable(rng, s)
        assert phi.points == s.points

    def test_seeded_reproducibility(self):
        s = corpus(seed=4, count=1, max_points=6)[0]
        a = random_observable(random.Random(42), s)
        b = random_observable(random.Random(42), s)
        assert a == b
