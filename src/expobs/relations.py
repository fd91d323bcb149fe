"""Orbit separation analysis on finite systems.

The central object is the orbit sup-distance D(x, y) = sup_n d(f^n x, f^n y).
Because the map is a bijection of a finite set, the pair walk
(a, b) |-> (f a, f b) is a permutation of ordered pairs, so the supremum is a
maximum over one pair-cycle and the forward walk already covers all integer
iterates (negative ones included).  Each system keeps its pair cycles with
their D values, sorted by D (`FiniteSystem.orbit_cycles`), and the threshold
queries here read that one structure: e* is the first D, delta*(phi) is the D
of the first cycle that holds a pair in two different level classes of phi,
and a quotient unions the cycles of a prefix.  Observables enter as their
stored level classes, lined up with the system's points by `Observable.ids_on`:
small ints are compared in place of Gaussian rationals, and squared
oscillations are ints, computed from the class values' Gaussian integers
over the observable's one scale (`Observable.levels`).  The distance thresholds
read the pairs grouped by realized distance, ascending
(`FiniteSystem.distance_groups`): the moduli (omega_map,
omega_obs, and omega_h in `algebra`) are tables with one maximum per group,
a single-t modulus is a lookup into its table, and gamma_k and the chain
components read a prefix of the groups.  Both structures are built by
comparing the ints of `FiniteSystem.int_metric`, the stored metric over one
common denominator; their D and t values are its shared Fractions, one per
distinct distance, and a D turns back into its int as
d.numerator * (scale // d.denominator).
Every sweep over point pairs compares ints: a modulus weighs each pair by an
int (a cycle maximum or a target distance over `int_metric`, or an
oscillation from `_oscillations`), and each table entry becomes one Fraction,
the running maximum times the weights' unit.
The periodic levels read the powers f^k, one shared system per k modulo the
order of f (`power_system`), and the k-fixed points from the cycle lengths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .errors import DegenerateSpace, UnknownPoint
from .exact import INF, ExtScalar
from .model import FiniteSystem, Observable


def pair_cycles(system: FiniteSystem) -> list:
    """Unordered point pairs split into orbits of (a, b) -> (f a, f b).

    A list of cycles, each a list of index pairs (i, j) with i < j, in the
    order of `FiniteSystem.orbit_cycles`: ascending by orbit sup-distance D,
    ties in document order of their smallest seed pair.
    """
    return [list(cycle) for _, cycle in system.orbit_cycles]


@dataclass(frozen=True)
class OrbitDistanceTable:
    """Orbit sup-distances of a system, indexed like its metric."""

    system: FiniteSystem
    values: tuple

    def dist(self, x, y) -> Fraction:
        return self.values[self.system.index(x)][self.system.index(y)]


def orbit_distance_table(system: FiniteSystem) -> OrbitDistanceTable:
    """n x n table whose (x, y) entry is D of the pair-cycle holding (x, y)."""
    n = system.n
    table = [[Fraction(0)] * n for _ in range(n)]
    for d, cycle in system.orbit_cycles:
        for i, j in cycle:
            table[i][j] = table[j][i] = d
    return OrbitDistanceTable(system, tuple(tuple(row) for row in table))


def e_star(system: FiniteSystem) -> Fraction:
    """The separation constant min_{x != y} D(x, y)."""
    if system.n < 2:
        raise DegenerateSpace("e* needs at least two points")
    return system.orbit_cycles[0][0]


def delta_star(system: FiniteSystem, phi: Observable) -> ExtScalar:
    """Expansivity constant of phi: min D(x, y) over pairs phi separates.

    The pair cycles are sorted by D, so this is the D of the first cycle that
    holds a pair in two different level classes.  INF for observables that
    separate nothing (constants); phi is then delta-expansive for every delta.
    phi is delta-expansive exactly when delta < delta_star(phi) (strict,
    because orbit closeness is a <= condition).
    """
    ids = phi.ids_on(system.points)
    for d, cycle in system.orbit_cycles:
        if any(ids[i] != ids[j] for i, j in cycle):
            return d
    return INF


def _oscillations(system: FiniteSystem, phi: Observable):
    """Level classes of phi and the squared oscillations between them, as ints.

    Returns (ids, rows, unit): ids[i] is the class of point i, and
    rows[i][c] * unit = |phi(x_i) - value_c|^2 exactly, an int per pair of
    classes computed from phi's class ints over its scale s (unit is 1/s^2).
    The ints order like the squared moduli they stand for, so maxima and
    minima are taken over ints and only the winner becomes a Fraction.
    """
    ids = phi.ids_on(system.points)
    _, ints, scale = phi.levels
    osc = [[(ra - rb) ** 2 + (ia - ib) ** 2 for rb, ib in ints] for ra, ia in ints]
    return ids, [osc[c] for c in ids], Fraction(1, scale * scale)


def sigma_star(system: FiniteSystem, phi: Observable) -> ExtScalar:
    """Strong expansivity constant, reported as a squared modulus.

    min over phi-separated pairs of max_n |phi(f^n x) - phi(f^n y)|^2.
    Squared moduli keep Gaussian-rational magnitudes inside the rationals;
    compare against other squared quantities only.  Every pair of a pair-cycle
    shares the cycle maximum, and a cycle holds a phi-separated pair exactly
    when that maximum is positive, so the minimum runs over cycles.  Both are
    taken over the integer oscillations of `_oscillations`, and a cycle is
    left as soon as one of its pairs reaches the best maximum so far.
    """
    ids, rows, scale = _oscillations(system, phi)
    best = 0
    for _, cycle in system.orbit_cycles:
        top = 0
        for i, j in cycle:
            w = rows[i][ids[j]]
            if w > top:
                if best and w >= best:
                    break
                top = w
        else:
            if top:
                best = top
    return best * scale if best else INF


def modulus_table(system: FiniteSystem, weight, unit: Fraction) -> tuple:
    """((t, unit * max weight(i, j) over pairs with d(x_i, x_j) <= t), ...)
    for every realized distance t, ascending: a running maximum, from 0, with
    one maximum per group of `FiniteSystem.distance_groups`.  Weights are
    nonnegative ints, so the sweep compares ints only; each entry is one
    Fraction, made when the maximum grows and shared while it holds.
    """
    table = []
    best, value = 0, 0 * unit
    for t, pairs in system.distance_groups:
        top = max(weight(i, j) for i, j in pairs)
        if top > best:
            best, value = top, top * unit
        table.append((t, value))
    return tuple(table)


def modulus_at(table: tuple, t) -> Fraction:
    """A modulus table's value at t: its entry at the largest realized
    distance <= t, and 0 below the smallest one."""
    k = bisect_right(table, t, key=lambda entry: entry[0])
    return table[k - 1][1] if k else Fraction(0)


def omega_map_table(system: FiniteSystem) -> tuple:
    """((t, omega_map(t)), ...) over the realized distances t, each pair
    weighed by the D of its pair cycle as an int over `int_metric`."""
    n = system.n
    scale = system.int_metric[1]
    orbit = [0] * (n * n)
    for d, cycle in system.orbit_cycles:
        top = d.numerator * (scale // d.denominator)
        for i, j in cycle:
            orbit[i * n + j] = top
    return modulus_table(system, lambda i, j: orbit[i * n + j], Fraction(1, scale))


def omega_map(system: FiniteSystem, t: Fraction) -> Fraction:
    """Uniform-expansion modulus: max { D(x,y) : d(x,y) <= t }, 0 if vacuous."""
    if t < 0:
        raise ValueError("omega_map needs t >= 0")
    return modulus_at(omega_map_table(system), t)


def omega_obs_table(system: FiniteSystem, phi: Observable) -> tuple:
    """((t, omega_obs(phi, t)), ...) over the realized distances t."""
    ids, rows, scale = _oscillations(system, phi)
    return modulus_table(system, lambda i, j: rows[i][ids[j]], scale)


def omega_obs(system: FiniteSystem, phi: Observable, t: Fraction) -> Fraction:
    """Oscillation modulus of phi (squared): max |phi(x)-phi(y)|^2 over d <= t."""
    if t < 0:
        raise ValueError("omega_obs needs t >= 0")
    return modulus_at(omega_obs_table(system, phi), t)


# --- quotients --------------------------------------------------------------


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@dataclass(frozen=True)
class Quotient:
    """Partition of the points at an indistinguishability threshold."""

    threshold: Fraction
    blocks: tuple


def _components(system: FiniteSystem, edges) -> tuple:
    """Connected components of the graph on the points with these index edges."""
    dsu = _DSU(system.n)
    for i, j in edges:
        dsu.union(i, j)
    groups = {}
    for i in range(system.n):
        groups.setdefault(dsu.find(i), []).append(i)
    blocks = sorted(groups.values(), key=lambda g: g[0])
    return tuple(tuple(system.points[i] for i in g) for g in blocks)


def indistinguishability_quotient(system: FiniteSystem, delta: Fraction) -> Quotient:
    """Blocks = connected components of the graph with edges D(x, y) <= delta.

    An observable is delta-expansive on the system exactly when it is constant
    on every block; the blocks are a complete characterization, not a bound.
    The cycles with D <= delta are a prefix of the sorted pair cycles.
    """
    if delta < 0:
        raise ValueError("threshold must be >= 0")
    prefix = takewhile(lambda entry: entry[0] <= delta, system.orbit_cycles)
    edges = (pair for _, cycle in prefix for pair in cycle)
    return Quotient(Fraction(delta), _components(system, edges))


def chain_components(system: FiniteSystem, t: Fraction) -> tuple:
    """Components of the graph with metric edges d(x, y) <= t."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    prefix = takewhile(lambda group: group[0] <= t, system.distance_groups)
    edges = (pair for _, pairs in prefix for pair in pairs)
    return _components(system, edges)


def pointwise_constants(system: FiniteSystem) -> dict:
    """delta_x = min_{y != x} D(x, y) for every point x (document order).

    The pair cycles are sorted by D, so delta_x is the D of the first cycle
    that holds a pair with x in it.
    """
    if system.n < 2:
        raise DegenerateSpace("pointwise constants need at least two points")
    best = [None] * system.n
    for d, cycle in system.orbit_cycles:
        for i, j in cycle:
            if best[i] is None:
                best[i] = d
            if best[j] is None:
                best[j] = d
    return dict(zip(system.points, best))


def is_constant_on_blocks(phi: Observable, quotient: Quotient) -> bool:
    class_of = dict(zip(phi.points, phi.levels[0]))
    try:
        for block in quotient.blocks:
            first = class_of[block[0]]
            if any(class_of[p] != first for p in block[1:]):
                return False
    except KeyError as exc:
        raise UnknownPoint(f"observable undefined at {exc.args[0]!r}") from None
    return True


# --- powers and periodic structure ------------------------------------------


def power_system(system: FiniteSystem, k: int) -> FiniteSystem:
    """Same space, map f^k (k may be negative; k = 0 is rejected).

    f^k rotates each cycle of the permutation by k modulo its length, so the
    cost is O(n) for every k; a negative k rotates backwards (the inverse).
    f^k depends only on k modulo the order of f (the lcm of its cycle
    lengths), and each system caches its powers under that key: every level
    and observable asking for one power share one system, so its pair cycles
    are walked once.  The key of f itself returns the system.  A power takes
    the system's `int_metric` object and its `_distances` dict, since its
    metric is the same.
    """
    if k == 0:
        raise ValueError("power_system needs k != 0")
    cycles = system.cycles
    order = math.lcm(*map(len, cycles))
    key = k % order
    if key == 1 % order:
        return system
    power = system._powers.get(key)
    if power is None:
        perm = [0] * system.n
        for cycle in cycles:
            shift = key % len(cycle)
            for pos, i in enumerate(cycle):
                perm[i] = cycle[(pos + shift) % len(cycle)]
        power = FiniteSystem(system.points, system.int_metric, tuple(perm))
        power.__dict__["_distances"] = system._distances
        system._powers[key] = power
    return power


def fixed_points(system: FiniteSystem, k: int) -> tuple:
    """Points with f^k(x) = x, in document order (k >= 1): the points whose
    cycle length divides k."""
    if k < 1:
        raise ValueError("fixed_points needs k >= 1")
    fixed = [False] * system.n
    for cycle in system.cycles:
        if k % len(cycle) == 0:
            for i in cycle:
                fixed[i] = True
    return tuple(p for p, is_fixed in zip(system.points, fixed) if is_fixed)


@dataclass(frozen=True)
class PeriodicLevelReport:
    """Values of an observable across the k-periodic points.

    holds: every pair of k-fixed points closer than the power system's
    expansivity constant carries equal values.  On a finite system this is a
    theorem, so violations should be empty; they are reported anyway so a
    replay can fail loudly instead of silently.
    """

    k: int
    fixed: tuple
    distinct_values: tuple
    delta_star_power: ExtScalar
    holds: bool
    violations: tuple


def periodic_level_report(system: FiniteSystem, phi: Observable, k: int) -> PeriodicLevelReport:
    ids = phi.ids_on(system.points)
    fixed = fixed_points(system, k)
    power = power_system(system, k)
    dstar_k = delta_star(power, phi)
    ints, scale = system.int_metric
    # A finite delta* is a distance, so it scales to an int.
    limit = dstar_k if dstar_k is INF else dstar_k.numerator * (scale // dstar_k.denominator)
    fixed_ids = [system.index(p) for p in fixed]
    distinct = dict.fromkeys(ids[i] for i in fixed_ids)
    violations = []
    for a_i, i in enumerate(fixed_ids):
        for j in fixed_ids[a_i + 1:]:
            if ids[i] != ids[j] and ints[i][j] < limit:
                violations.append((system.points[i], system.points[j]))
    return PeriodicLevelReport(
        k=k,
        fixed=fixed,
        distinct_values=tuple(phi.class_values[c] for c in distinct),
        delta_star_power=dstar_k,
        holds=not violations,
        violations=tuple(violations),
    )


def gamma_k(system: FiniteSystem, k: int, e: Fraction) -> Fraction:
    """Largest realized t such that d(x,y) <= t forces the first k iterates
    to stay within e; 0 when no positive realized t qualifies.

    Distances are compared as the ints of `int_metric`: an int distance
    exceeds e * scale exactly when it exceeds floor(e * scale).
    """
    if k < 1:
        raise ValueError("gamma_k needs k >= 1")
    if e < 0:
        raise ValueError("gamma_k needs e >= 0")
    perm = system.perm
    ints, scale = system.int_metric
    limit = math.floor(e * scale)

    def strays(a, b):
        for _ in range(k):
            if ints[a][b] > limit:
                return True
            a, b = perm[a], perm[b]
        return False

    # The answer is the realized distance just below the first group holding
    # a pair that strays beyond e; the largest one if no group does.
    qualified = Fraction(0)
    for t, pairs in system.distance_groups:
        if any(strays(i, j) for i, j in pairs):
            return qualified
        qualified = t
    return qualified


# --- small helpers used across modules --------------------------------------


def separated_pairs(system: FiniteSystem, phi: Observable) -> tuple:
    """Index pairs (i, j), i < j, with phi(x_i) != phi(x_j)."""
    ids = phi.ids_on(system.points)
    return tuple(
        (i, j)
        for i in range(system.n)
        for j in range(i + 1, system.n)
        if ids[i] != ids[j]
    )
