"""Finite metric systems (bijective self-maps of finite exact metric spaces)
and exact complex observables on them, plus the JSON interchange format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

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

    points  -- identifiers in document order (the order every table follows)
    metric  -- exact distance matrix indexed like points
    perm    -- the map as an index permutation: points[i] |-> points[perm[i]]
    """

    points: tuple
    metric: tuple
    perm: tuple

    @classmethod
    def build(cls, points, metric_rows, mapping: Mapping) -> "FiniteSystem":
        points = tuple(points)
        if not points:
            raise InvalidDocument("a system needs at least one point")
        if len(set(points)) != len(points):
            raise InvalidDocument("duplicate point identifiers")
        n = len(points)
        rows = tuple(tuple(Fraction(v) for v in row) for row in metric_rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidDocument(f"metric must be a {n}x{n} matrix")
        _check_metric(points, rows)
        perm = _permutation_of(points, mapping)
        return cls(points, rows, perm)

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
        return self.metric[self.index(x)][self.index(y)]

    def apply(self, point):
        return self.points[self.perm[self.index(point)]]

    @cached_property
    def inverse_perm(self) -> tuple:
        inv = [0] * self.n
        for i, j in enumerate(self.perm):
            inv[j] = i
        return tuple(inv)

    def realized_distances(self) -> tuple:
        """Sorted distinct positive distances d(x, y), x != y."""
        vals = {self.metric[i][j] for i in range(self.n) for j in range(i + 1, self.n)}
        return tuple(sorted(vals))


def _check_metric(points, rows):
    n = len(points)
    for i in range(n):
        if rows[i][i] != 0:
            raise MetricViolation(f"d({points[i]},{points[i]}) = {rows[i][i]}, expected 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise MetricViolation(
                    f"asymmetry at ({points[i]},{points[j]}): {rows[i][j]} vs {rows[j][i]}"
                )
            if rows[i][j] <= 0:
                raise MetricViolation(
                    f"nonpositive distance d({points[i]},{points[j]}) = {rows[i][j]}"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    raise MetricViolation(
                        "triangle inequality fails at "
                        f"({points[i]},{points[j]},{points[k]}): "
                        f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                    )


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
    rows = [[parse_rational(v) for v in row] for row in metric]
    if not isinstance(doc["map"], dict):
        raise InvalidDocument("'map' must be an object")
    return FiniteSystem.build(points, rows, doc["map"])


def serialize_system(system: FiniteSystem) -> dict:
    return {
        "points": list(system.points),
        "metric": [[format_rational(v) for v in row] for row in system.metric],
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


# --- observables -----------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """Function from point identifiers to Gaussian rationals.

    Entries are kept in a fixed order (the system's document order when built
    through from_mapping/from_values) so serialization is deterministic.
    """

    entries: tuple

    @classmethod
    def from_mapping(cls, system: FiniteSystem, mapping: Mapping) -> "Observable":
        missing = [p for p in system.points if p not in mapping]
        extra = [p for p in mapping if p not in system._index]
        if missing or extra:
            raise DomainMismatch(
                f"observable domain mismatch (missing {missing!r}, extra {extra!r})"
            )
        return cls(tuple((p, mapping[p]) for p in system.points))

    @classmethod
    def from_values(cls, system: FiniteSystem, values: Iterable) -> "Observable":
        vals = tuple(values)
        if len(vals) != system.n:
            raise DomainMismatch(f"expected {system.n} values, got {len(vals)}")
        return cls(tuple(zip(system.points, vals)))

    @classmethod
    def constant(cls, system: FiniteSystem, value: GaussianRational) -> "Observable":
        return cls.from_values(system, [value] * system.n)

    @cached_property
    def _lookup(self):
        return dict(self.entries)

    def __getitem__(self, point) -> GaussianRational:
        try:
            return self._lookup[point]
        except KeyError:
            raise UnknownPoint(f"observable undefined at {point!r}") from None

    @property
    def points(self) -> tuple:
        return tuple(p for p, _ in self.entries)

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.entries)

    def domain(self) -> frozenset:
        return frozenset(self._lookup)


def check_domain(system: FiniteSystem, phi: Observable) -> None:
    if phi.domain() != frozenset(system.points):
        raise DomainMismatch("observable is not defined on this system's points")


def parse_observable(document, system: FiniteSystem = None) -> Observable:
    doc = _as_dict(document)
    if "values" not in doc or not isinstance(doc["values"], dict):
        raise InvalidDocument("observable document needs a 'values' object")
    mapping = {p: GaussianRational.parse_pair(v) for p, v in doc["values"].items()}
    if system is not None:
        return Observable.from_mapping(system, mapping)
    return Observable(tuple(mapping.items()))


def serialize_observable(phi: Observable, system_id: str = None) -> dict:
    doc = {}
    if system_id is not None:
        doc["system"] = system_id
    doc["values"] = {p: v.to_pair() for p, v in phi.entries}
    return doc


# --- basic quantities ------------------------------------------------------


def mesh(system: FiniteSystem) -> Fraction:
    """Smallest positive distance; the default analysis resolution."""
    if system.n < 2:
        raise DegenerateSpace("mesh needs at least two points")
    return min(
        system.metric[i][j]
        for i in range(system.n)
        for j in range(i + 1, system.n)
    )


def distance_observable(system: FiniteSystem, base) -> Observable:
    """The observable z |-> d(base, z); real-valued, zero exactly at base."""
    i = system.index(base)
    return Observable.from_values(
        system,
        [GaussianRational(system.metric[i][j], Fraction(0)) for j in range(system.n)],
    )
