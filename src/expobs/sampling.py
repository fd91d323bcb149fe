"""Seeded random generation of systems and observables.

Everything is driven by an explicit random.Random instance, so identical
seeds give identical objects, byte for byte, across runs and worker counts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import GR_I, GR_ONE, GR_ZERO, GaussianRational
from .model import FiniteSystem, Observable, _levels

# Small palette on purpose: collisions create the level-set structure the
# delta-star laws act on.
PALETTE = (
    GR_ZERO,
    GR_ONE,
    GR_I,
    GaussianRational.of(1, 1),
    GaussianRational.of(Fraction(1, 2)),
)
# PALETTE as the int pairs of `Observable.levels` over one scale.
_, PALETTE_INTS, PALETTE_SCALE = _levels(PALETTE)


def random_metric(rng: random.Random, n: int) -> list:
    """Random symmetric positive matrix repaired into a metric.

    The repair is the shortest-path closure, which preserves symmetry and
    positivity and enforces the triangle inequality exactly.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
            rows[i][j] = rows[j][i] = v
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = rows[i][k] + rows[k][j]
                if i != j and via < rows[i][j]:
                    rows[i][j] = via
    return rows


def random_system(rng: random.Random, min_points: int = 2, max_points: int = 12) -> FiniteSystem:
    n = rng.randint(min_points, max_points)
    points = tuple(str(i) for i in range(n))
    rows = random_metric(rng, n)
    images = list(range(n))
    rng.shuffle(images)
    mapping = {points[i]: points[images[i]] for i in range(n)}
    return FiniteSystem.build(points, rows, mapping)


def random_observable(rng: random.Random, system: FiniteSystem) -> Observable:
    """Each point's palette class is drawn as `rng.randrange(len(PALETTE))`
    draws it, getrandbits(k) with k = len(PALETTE).bit_length() redrawn
    until it is below len(PALETTE): the same random stream, without the
    per-call overhead of `randrange`."""
    size, draw = len(PALETTE), rng.getrandbits
    bits = size.bit_length()
    ids = []
    for _ in system.points:
        c = draw(bits)
        while c >= size:
            c = draw(bits)
        ids.append(c)
    return Observable._from_classes(system.points, ids, PALETTE_INTS, PALETTE_SCALE)


def random_scalar(rng: random.Random) -> GaussianRational:
    return PALETTE[rng.randrange(len(PALETTE))]


def corpus(seed: int, count: int = 200, max_points: int = 12) -> list:
    """Deterministic list of random systems for property sweeps."""
    rng = random.Random(seed)
    return [random_system(rng, 2, max_points) for _ in range(count)]
