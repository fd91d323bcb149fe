import random
from fractions import Fraction

from expobs.relations import e_star, omega_map, orbit_distance_table
from expobs.model import Observable
from expobs.sampling import (
    PALETTE,
    PALETTE_INTS,
    PALETTE_SCALE,
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

    def test_classes_are_drawn_as_randrange_draws_them(self):
        """Same observable and same generator state afterwards as drawing
        each class with `randrange(len(PALETTE))`."""
        for seed in range(200):
            for s in corpus(seed=seed, count=3, max_points=12) + [random_system(random.Random(seed), 1, 1)]:
                rng, reference = random.Random(seed), random.Random(seed)
                phi = random_observable(rng, s)
                ids = [reference.randrange(len(PALETTE)) for _ in s.points]
                assert phi == Observable._from_classes(s.points, ids, PALETTE_INTS, PALETTE_SCALE)
                assert rng.getstate() == reference.getstate()
