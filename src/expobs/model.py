"""Finite metric systems (bijective self-maps of finite exact metric spaces)
and exact complex observables on them, plus the JSON interchange format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateSpace,
    DomainMismatch,
    InvalidDocument,
    MetricViolation,
    NotABijection,
    UnknownPoint,
)
from .exact import GaussianRational, format_rational, parse_rational


@dataclass(frozen=True)
class FiniteSystem:
    """A finite metric space with a distance-compatible bijection.

    points     -- identifiers in document order (the order every table follows)
    int_metric -- (ints, scale): d(points[i], points[j]) = ints[i][j] / scale
    perm       -- the map as an index permutation: points[i] |-> points[perm[i]]

    scale is the lcm of the distances' reduced denominators, so gcd(scale,
    every int) = 1: equal metrics have equal (ints, scale), and equality and
    hash follow the distances.  The ints compare exactly as the distances do.
    Every other form of the metric is derived: `_distances` holds one shared
    Fraction per distinct distance, and `metric` lays them out as a matrix.
    """

    points: tuple
    int_metric: tuple
    perm: tuple

    @classmethod
    def build(cls, points, metric_rows, mapping: Mapping) -> "FiniteSystem":
        points = tuple(points)
        if not points:
            raise InvalidDocument("a system needs at least one point")
        if len(set(points)) != len(points):
            raise InvalidDocument("duplicate point identifiers")
        n = len(points)
        rows = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row)
            for row in metric_rows
        )
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidDocument(f"metric must be a {n}x{n} matrix")
        int_metric = _check_metric(points, rows)
        return cls(points, int_metric, _permutation_of(points, mapping))

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def _index(self):
        return {p: i for i, p in enumerate(self.points)}

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(f"no point {point!r} in this system") from None

    def dist(self, x, y) -> Fraction:
        return self._distances[self.int_metric[0][self.index(x)][self.index(y)]]

    def apply(self, point):
        return self.points[self.perm[self.index(point)]]

    @cached_property
    def _distances(self) -> dict:
        """{x: x / scale} over the distinct ints x of `int_metric`: the one
        Fraction that every derived form hands out for each distance."""
        ints, scale = self.int_metric
        return {x: Fraction(x, scale) for x in set(chain.from_iterable(ints))}

    @cached_property
    def metric(self) -> tuple:
        """The distance matrix as Fractions, indexed like points."""
        distance = self._distances.__getitem__
        return tuple(tuple(map(distance, row)) for row in self.int_metric[0])

    @cached_property
    def cycles(self) -> tuple:
        """The cycles of perm, each a tuple of indices from its least index
        on, listed by least index."""
        perm, seen, cycles = self.perm, [False] * self.n, []
        for start in range(self.n):
            if not seen[start]:
                cycle = [start]
                seen[start] = True
                while perm[cycle[-1]] != start:
                    cycle.append(perm[cycle[-1]])
                    seen[cycle[-1]] = True
                cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def _powers(self) -> dict:
        """Power systems f^k built so far, keyed by k modulo the order of
        perm; `relations.power_system` fills it."""
        return {}

    @cached_property
    def orbit_cycles(self) -> tuple:
        """Pair cycles of (a, b) |-> (f a, f b), each with its orbit sup-distance.

        Returns ((D, cycle), ...) sorted stably by D, ascending.  A cycle is a
        tuple of index pairs (i, j) with i < j in first-visit order, and cycles
        with equal D keep the document order of their smallest seed pair.  D
        is the metric maximum over the cycle, which is D(x, y) for every pair
        on it.  Distinct points never meet the diagonal (f is a bijection), so
        every distance along a cycle is positive.  Every threshold query reads
        this one structure: e* is the first D, delta* of an observable is the D
        of the first cycle it separates, and the pairs with D <= delta are the
        cycles of a prefix.  The maxima and the sort compare the ints of
        `int_metric`; D is the shared `_distances` Fraction of the max.
        """
        n, perm = self.n, self.perm
        ints = self.int_metric[0]
        seen = bytearray(n * n)
        keyed = []
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i * n + j]:
                    continue
                cycle = []
                top = -1
                a, b = i, j
                while True:
                    lo, hi = (a, b) if a < b else (b, a)
                    if not seen[lo * n + hi]:
                        seen[lo * n + hi] = 1
                        cycle.append((lo, hi))
                        if ints[lo][hi] > top:
                            top = ints[lo][hi]
                    a, b = perm[a], perm[b]
                    if a == i and b == j:
                        break
                keyed.append((top, tuple(cycle)))
        keyed.sort(key=lambda entry: entry[0])
        distances = self._distances
        return tuple((distances[top], cycle) for top, cycle in keyed)

    @cached_property
    def distance_groups(self) -> tuple:
        """((t, pairs), ...), one entry per realized distance t, ascending.

        pairs lists the index pairs (i, j), i < j, with d(x_i, x_j) = t in
        document order.  Every modulus table takes one maximum per group, and
        the pairs with d <= t are the groups of a prefix for every threshold t.
        Pairs are grouped and sorted by the ints of `int_metric`; t is the
        group's shared `_distances` Fraction.
        """
        n, distances = self.n, self._distances
        ints = self.int_metric[0]
        groups = {}
        for i in range(n):
            row = ints[i]
            for j in range(i + 1, n):
                groups.setdefault(row[j], []).append((i, j))
        return tuple((distances[x], tuple(pairs)) for x, pairs in sorted(groups.items()))

    def realized_distances(self) -> tuple:
        """Sorted distinct positive distances d(x, y), x != y."""
        return tuple(t for t, _ in self.distance_groups)


def _check_metric(points, rows) -> tuple:
    """Validate a square matrix of Fractions as a metric on points and return
    it as `FiniteSystem.int_metric`.  Every check compares the ints; the
    messages quote the Fraction entries."""
    n = len(points)
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    ints = tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows
    )
    for i in range(n):
        ri = ints[i]
        if ri[i] != 0:
            raise MetricViolation(f"d({points[i]},{points[i]}) = {rows[i][i]}, expected 0")
        for j in range(i + 1, n):
            if ri[j] != ints[j][i]:
                raise MetricViolation(
                    f"asymmetry at ({points[i]},{points[j]}): {rows[i][j]} vs {rows[j][i]}"
                )
            if ri[j] <= 0:
                raise MetricViolation(
                    f"nonpositive distance d({points[i]},{points[j]}) = {rows[i][j]}"
                )
    # The triangle inequality.  Rows are symmetric here, so column j is row j,
    # and d(i, j) <= d(i, k) + d(k, j) for every k is one comparison against
    # the least row sum.  A pair (j, i) fails exactly when (i, j) does, so the
    # first failing triple in (i, j, k) order has i < j; only a failing pair
    # rescans k to name it.
    for i in range(n):
        ri = ints[i]
        for j in range(i + 1, n):
            if ri[j] > min(map(add, ri, ints[j])):
                k = next(k for k in range(n) if ri[j] > ri[k] + ints[k][j])
                raise MetricViolation(
                    "triangle inequality fails at "
                    f"({points[i]},{points[j]},{points[k]}): "
                    f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                )
    return ints, scale


def _permutation_of(points, mapping):
    index = {p: i for i, p in enumerate(points)}
    perm = []
    for p in points:
        if p not in mapping:
            raise NotABijection(f"map is undefined at {p!r}")
        image = mapping[p]
        if image not in index:
            raise NotABijection(f"map sends {p!r} outside the space: {image!r}")
        perm.append(index[image])
    if len(set(perm)) != len(points):
        seen = {}
        for p in points:
            q = mapping[p]
            if q in seen:
                raise NotABijection(f"{seen[q]!r} and {p!r} share the image {q!r}")
            seen[q] = p
    return tuple(perm)


# --- interchange -----------------------------------------------------------


def parse_system(document) -> FiniteSystem:
    """Parse a system document (JSON text or already-decoded dict)."""
    doc = _as_dict(document)
    for key in ("points", "metric", "map"):
        if key not in doc:
            raise InvalidDocument(f"system document lacks {key!r}")
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InvalidDocument("'points' must be a list of strings")
    metric = doc["metric"]
    if not isinstance(metric, list) or not all(isinstance(row, list) for row in metric):
        raise InvalidDocument("'metric' must be a list of rows")
    parse = _memoized(parse_rational)
    rows = [[parse(v) for v in row] for row in metric]
    if not isinstance(doc["map"], dict):
        raise InvalidDocument("'map' must be an object")
    return FiniteSystem.build(points, rows, doc["map"])


def serialize_system(system: FiniteSystem) -> dict:
    # One string per distinct distance, found by its int in `int_metric`.
    text = {x: format_rational(v) for x, v in system._distances.items()}
    return {
        "points": list(system.points),
        "metric": [[text[x] for x in row] for row in system.int_metric[0]],
        "map": {p: system.points[system.perm[i]] for i, p in enumerate(system.points)},
    }


def _as_dict(document):
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise InvalidDocument("document must be a JSON object")
    return document


def _memoized(parse):
    """parse, run once per distinct literal.  Only strings and lists of
    strings are memoized: a JSON true equals 1 as a key, and must still be
    rejected."""
    literals = {}

    def memo(v):
        if type(v) is str:
            key = v
        elif type(v) is list and all(type(part) is str for part in v):
            key = tuple(v)
        else:
            return parse(v)
        value = literals.get(key)
        if value is None:
            value = literals[key] = parse(v)
        return value

    return memo


def _rational_list(doc: dict, key: str) -> list:
    """doc[key] as exact rationals; anything but a JSON list is rejected."""
    values = doc[key]
    if not isinstance(values, list):
        raise InvalidDocument(f"{key!r} must be a list of rationals")
    return [parse_rational(v) for v in values]


# --- observables -----------------------------------------------------------


@dataclass(frozen=True, init=False)
class Observable:
    """Function from point identifiers to Gaussian rationals, stored as its
    level classes: levels = (ids, ints, scale), where ids[k] is the class of
    points[k], numbered by first appearance, one class per distinct value,
    and class c has the value (re + i*im)/scale for ints[c] = (re, im).
    scale is canonical: gcd(scale, every re and im) = 1, so it is the lcm of
    the reduced denominators (1 for integer values), and two classes hold
    equal values exactly when their int pairs are equal.  An observable
    built on a system keeps the system's own `points` tuple; `ids_on` lines
    the ids up with a system.  class_values, entries and values are derived
    in point order, and observables are equal exactly when their entries
    are, in order.
    """

    points: tuple
    levels: tuple

    def __init__(self, entries: Iterable):
        entries = tuple(entries)
        self._set(tuple(p for p, _ in entries), _levels(v for _, v in entries))

    def _set(self, points: tuple, levels: tuple) -> "Observable":
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "levels", levels)
        return self

    @classmethod
    def _stored(cls, points: tuple, levels: tuple) -> "Observable":
        return object.__new__(cls)._set(points, levels)

    @classmethod
    def from_mapping(cls, system: FiniteSystem, mapping: Mapping) -> "Observable":
        _check_domain(system, mapping)
        return cls._stored(system.points, _levels([mapping[p] for p in system.points]))

    @classmethod
    def from_values(cls, system: FiniteSystem, values: Iterable) -> "Observable":
        vals = tuple(values)
        if len(vals) != system.n:
            raise DomainMismatch(f"expected {system.n} values, got {len(vals)}")
        return cls._stored(system.points, _levels(vals))

    @classmethod
    def _from_classes(
        cls, points: tuple, ids: Sequence, class_ints, scale: int
    ) -> "Observable":
        """The observable taking class_ints[c]/scale at each point of class c.

        points and ids run in step, and the int pairs need not be reduced.
        Classes are renumbered by first appearance and classes of equal int
        pairs merged, so only the classes are hashed, not each point's value;
        then the ints and scale are divided once by their gcd.
        """
        merged, renumbered = {}, {}
        for c in ids:
            if c not in renumbered:
                renumbered[c] = merged.setdefault(class_ints[c], len(merged))
        ints = tuple(merged)
        g = math.gcd(scale, *chain.from_iterable(ints))
        if g != 1:
            scale //= g
            ints = tuple((re // g, im // g) for re, im in ints)
        return cls._stored(points, (tuple(map(renumbered.__getitem__, ids)), ints, scale))

    @classmethod
    def constant(cls, system: FiniteSystem, value: GaussianRational) -> "Observable":
        _, ints, scale = _levels((value,))
        return cls._stored(system.points, ((0,) * system.n, ints, scale))

    @cached_property
    def _index(self) -> dict:
        return {p: k for k, p in enumerate(self.points)}

    @cached_property
    def class_values(self) -> tuple:
        """The value of each level class, as Gaussian rationals."""
        _, ints, scale = self.levels
        return tuple(
            GaussianRational(Fraction(re, scale), Fraction(im, scale)) for re, im in ints
        )

    def __getitem__(self, point) -> GaussianRational:
        try:
            k = self._index[point]
        except KeyError:
            raise UnknownPoint(f"observable undefined at {point!r}") from None
        return self.class_values[self.levels[0][k]]

    def ids_on(self, points: tuple) -> tuple:
        """The class ids in the order of points, which must hold exactly
        phi's points (else DomainMismatch): the stored ids for phi's own
        tuple, else checked and reordered."""
        ids = self.levels[0]
        if points is self.points:
            return ids
        index = self._index
        if len(points) != len(index) or not all(p in index for p in points):
            raise DomainMismatch("observable is not defined on exactly these points")
        return tuple(ids[index[p]] for p in points)

    @property
    def values(self) -> tuple:
        return tuple(map(self.class_values.__getitem__, self.levels[0]))

    @property
    def entries(self) -> tuple:
        return tuple(zip(self.points, self.values))


def _check_domain(system: FiniteSystem, mapping: Mapping) -> None:
    if mapping.keys() != system._index.keys():
        missing = [p for p in system.points if p not in mapping]
        extra = [p for p in mapping if p not in system._index]
        raise DomainMismatch(
            f"observable domain mismatch (missing {missing!r}, extra {extra!r})"
        )


def _key(value: GaussianRational) -> tuple:
    """A value's reduced numerators and denominators: equal exactly when the
    values are, and hashed as a tuple of ints."""
    re, im = value.real, value.imag
    return re.numerator, re.denominator, im.numerator, im.denominator


def _key_levels(keys: Iterable) -> tuple:
    """`Observable.levels` of the values with these `_key`s, in order."""
    classes = {}
    ids = tuple([classes.setdefault(k, len(classes)) for k in keys])
    scale = math.lcm(*(key[1] for key in classes), *(key[3] for key in classes))
    ints = tuple((a * (scale // b), c * (scale // d)) for a, b, c, d in classes)
    return ids, ints, scale


def _levels(values: Iterable) -> tuple:
    """`Observable.levels` of Gaussian rational values in order."""
    return _key_levels(map(_key, values))


def parse_observable(document, system: FiniteSystem = None) -> Observable:
    doc = _as_dict(document)
    if "values" not in doc or not isinstance(doc["values"], dict):
        raise InvalidDocument("observable document needs a 'values' object")
    # Each distinct literal is parsed once, to the int key of its class.
    parse = _memoized(lambda v: _key(GaussianRational.parse_pair(v)))
    keys = {p: parse(v) for p, v in doc["values"].items()}
    if system is None:
        return Observable._stored(tuple(keys), _key_levels(keys.values()))
    _check_domain(system, keys)
    return Observable._stored(system.points, _key_levels([keys[p] for p in system.points]))


def serialize_observable(phi: Observable, system_id: str = None) -> dict:
    doc = {}
    if system_id is not None:
        doc["system"] = system_id
    # One pair of strings per class, laid out over the points.
    ids, ints, scale = phi.levels
    texts = [
        (format_rational(Fraction(re, scale)), format_rational(Fraction(im, scale)))
        for re, im in ints
    ]
    doc["values"] = {p: list(texts[c]) for p, c in zip(phi.points, ids)}
    return doc


# --- basic quantities ------------------------------------------------------


def mesh(system: FiniteSystem) -> Fraction:
    """Smallest positive distance; the default analysis resolution."""
    if system.n < 2:
        raise DegenerateSpace("mesh needs at least two points")
    return system.distance_groups[0][0]


def distance_observable(system: FiniteSystem, base) -> Observable:
    """The observable z |-> d(base, z); real-valued, zero exactly at base."""
    i = system.index(base)
    return Observable.from_values(
        system,
        [GaussianRational(system.metric[i][j], Fraction(0)) for j in range(system.n)],
    )
