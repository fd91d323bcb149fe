"""Orbit separation analysis on finite systems.

The central object is the orbit sup-distance D(x, y) = sup_n d(f^n x, f^n y).
Because the map is a bijection of a finite set, the pair walk
(a, b) |-> (f a, f b) is a permutation of ordered pairs, so the supremum is a
maximum over one pair-cycle and the forward walk already covers all integer
iterates (negative ones included).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSpace, DomainMismatch
from .exact import INF, ExtScalar, GaussianRational
from .model import FiniteSystem, Observable, check_domain


def pair_cycles(system: FiniteSystem) -> list:
    """Decompose unordered point pairs into orbits of (a, b) -> (f a, f b).

    Returns a list of cycles, each a list of index pairs (i, j) with i < j,
    in first-visit order; cycle list order follows the document order of the
    smallest seed pair.  Distinct points never meet the diagonal (f is a
    bijection), so every distance seen along a cycle is between two distinct
    points.
    """
    n = system.n
    perm = system.perm
    seen = [[False] * n for _ in range(n)]
    cycles = []
    for i in range(n):
        for j in range(i + 1, n):
            if seen[i][j]:
                continue
            cycle = []
            a, b = i, j
            while True:
                lo, hi = (a, b) if a < b else (b, a)
                if not seen[lo][hi]:
                    seen[lo][hi] = True
                    cycle.append((lo, hi))
                a, b = perm[a], perm[b]
                if (a, b) == (i, j):
                    break
            cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class OrbitDistanceTable:
    """Cached orbit sup-distances of a system, indexed like its metric."""

    system: FiniteSystem
    values: tuple

    def dist(self, x, y) -> Fraction:
        return self.values[self.system.index(x)][self.system.index(y)]


def orbit_distance_table(system: FiniteSystem) -> OrbitDistanceTable:
    """n x n table whose (x, y) entry is the metric maximum over the pair-cycle."""
    n, metric = system.n, system.metric
    table = [[None] * n for _ in range(n)]
    zero = Fraction(0)
    for i in range(n):
        table[i][i] = zero
    for cycle in pair_cycles(system):
        m = max(metric[i][j] for i, j in cycle)
        for i, j in cycle:
            table[i][j] = m
            table[j][i] = m
    return OrbitDistanceTable(system, tuple(tuple(row) for row in table))


def _pair_orbit(system: FiniteSystem, x, y):
    """Distances d(f^n x, f^n y) along the pair-cycle of (x, y); just 0 if x == y."""
    i0, j0 = system.index(x), system.index(y)
    if i0 == j0:
        yield Fraction(0)
        return
    perm, metric = system.perm, system.metric
    a, b = i0, j0
    while True:
        yield metric[a][b]
        a, b = perm[a], perm[b]
        if (a, b) == (i0, j0):
            return


def pair_orbit_sup(system: FiniteSystem, x, y) -> Fraction:
    """D(x, y) for a single pair, by walking its own pair-cycle."""
    return max(_pair_orbit(system, x, y))


def min_pair_distance(system: FiniteSystem, x, y) -> Fraction:
    """min_n d(f^n x, f^n y); positive for distinct points of a finite system."""
    return min(_pair_orbit(system, x, y))


def e_star(system: FiniteSystem, table: OrbitDistanceTable = None) -> Fraction:
    """The separation constant min_{x != y} D(x, y)."""
    if system.n < 2:
        raise DegenerateSpace("e* needs at least two points")
    if table is None:
        table = orbit_distance_table(system)
    v = table.values
    return min(v[i][j] for i in range(system.n) for j in range(i + 1, system.n))


def delta_star(system: FiniteSystem, phi: Observable, table: OrbitDistanceTable = None) -> ExtScalar:
    """Expansivity constant of phi: min D(x, y) over pairs phi separates.

    INF for observables that separate nothing (constants); phi is then
    delta-expansive for every delta.  phi is delta-expansive exactly when
    delta < delta_star(phi) (strict, because orbit closeness is a <= condition).
    """
    check_domain(system, phi)
    if table is None:
        table = orbit_distance_table(system)
    vals = [phi[p] for p in system.points]
    v = table.values
    best: ExtScalar = INF
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if vals[i] != vals[j] and v[i][j] < best:
                best = v[i][j]
    return best


def sigma_star(system: FiniteSystem, phi: Observable) -> ExtScalar:
    """Strong expansivity constant, reported as a squared modulus.

    min over phi-separated pairs of max_n |phi(f^n x) - phi(f^n y)|^2.
    Squared moduli keep Gaussian-rational magnitudes inside the rationals;
    compare against other squared quantities only.  Every pair of a pair-cycle
    shares the cycle maximum, and a cycle holds a phi-separated pair exactly
    when that maximum is positive, so the minimum runs over cycles.
    """
    check_domain(system, phi)
    vals = [phi[p] for p in system.points]
    maxima = (
        max((vals[i] - vals[j]).abs_sq() for i, j in cycle)
        for cycle in pair_cycles(system)
    )
    return min((m for m in maxima if m > 0), default=INF)


def omega_map(system: FiniteSystem, t: Fraction, table: OrbitDistanceTable = None) -> Fraction:
    """Uniform-expansion modulus: max { D(x,y) : d(x,y) <= t }, 0 if vacuous."""
    if t < 0:
        raise ValueError("omega_map needs t >= 0")
    if table is None:
        table = orbit_distance_table(system)
    metric, v = system.metric, table.values
    best = Fraction(0)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if metric[i][j] <= t and v[i][j] > best:
                best = v[i][j]
    return best


def omega_obs(system: FiniteSystem, phi: Observable, t: Fraction) -> Fraction:
    """Oscillation modulus of phi (squared): max |phi(x)-phi(y)|^2 over d <= t."""
    if t < 0:
        raise ValueError("omega_obs needs t >= 0")
    check_domain(system, phi)
    vals = [phi[p] for p in system.points]
    metric = system.metric
    best = Fraction(0)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if metric[i][j] <= t:
                osc = (vals[i] - vals[j]).abs_sq()
                if osc > best:
                    best = osc
    return best


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

    def block_of(self, point):
        for block in self.blocks:
            if point in block:
                return block
        raise KeyError(point)


def _components(system: FiniteSystem, edge_table, threshold) -> tuple:
    n = system.n
    dsu = _DSU(n)
    for i in range(n):
        for j in range(i + 1, n):
            if edge_table[i][j] <= threshold:
                dsu.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(dsu.find(i), []).append(i)
    blocks = sorted(groups.values(), key=lambda g: g[0])
    return tuple(tuple(system.points[i] for i in g) for g in blocks)


def indistinguishability_quotient(
    system: FiniteSystem, delta: Fraction, table: OrbitDistanceTable = None
) -> Quotient:
    """Blocks = connected components of the graph with edges D(x, y) <= delta.

    An observable is delta-expansive on the system exactly when it is constant
    on every block; the blocks are a complete characterization, not a bound.
    """
    if delta < 0:
        raise ValueError("threshold must be >= 0")
    if table is None:
        table = orbit_distance_table(system)
    return Quotient(Fraction(delta), _components(system, table.values, delta))


def chain_components(system: FiniteSystem, t: Fraction) -> tuple:
    """Components of the graph with metric edges d(x, y) <= t."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    return _components(system, system.metric, t)


def pointwise_constants(system: FiniteSystem, table: OrbitDistanceTable = None) -> dict:
    """delta_x = min_{y != x} D(x, y) for every point x (document order)."""
    if system.n < 2:
        raise DegenerateSpace("pointwise constants need at least two points")
    if table is None:
        table = orbit_distance_table(system)
    v = table.values
    return {
        p: min(v[i][j] for j in range(system.n) if j != i)
        for i, p in enumerate(system.points)
    }


def is_constant_on_blocks(phi: Observable, quotient: Quotient) -> bool:
    for block in quotient.blocks:
        first = phi[block[0]]
        if any(phi[p] != first for p in block[1:]):
            return False
    return True


# --- powers and periodic structure ------------------------------------------


def power_system(system: FiniteSystem, k: int) -> FiniteSystem:
    """Same space, map f^k (k may be negative; k = 0 is rejected)."""
    if k == 0:
        raise ValueError("power_system needs k != 0")
    base = system.perm if k > 0 else system.inverse_perm
    perm = tuple(range(system.n))
    for _ in range(abs(k)):
        perm = tuple(base[i] for i in perm)
    return FiniteSystem(system.points, system.metric, perm)


def fixed_points(system: FiniteSystem, k: int) -> tuple:
    """Points with f^k(x) = x, in document order (k >= 1)."""
    if k < 1:
        raise ValueError("fixed_points needs k >= 1")
    perm = power_system(system, k).perm
    return tuple(p for i, p in enumerate(system.points) if perm[i] == i)


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
    check_domain(system, phi)
    fixed = fixed_points(system, k)
    power = power_system(system, k)
    dstar_k = delta_star(power, phi)
    distinct = []
    for p in fixed:
        if phi[p] not in distinct:
            distinct.append(phi[p])
    violations = []
    for a_i, x in enumerate(fixed):
        for y in fixed[a_i + 1:]:
            if system.dist(x, y) < dstar_k and phi[x] != phi[y]:
                violations.append((x, y))
    return PeriodicLevelReport(
        k=k,
        fixed=fixed,
        distinct_values=tuple(distinct),
        delta_star_power=dstar_k,
        holds=not violations,
        violations=tuple(violations),
    )


def gamma_k(system: FiniteSystem, k: int, e: Fraction) -> Fraction:
    """Largest realized t such that d(x,y) <= t forces the first k iterates
    to stay within e; 0 when no positive realized t qualifies.
    """
    if k < 1:
        raise ValueError("gamma_k needs k >= 1")
    if e < 0:
        raise ValueError("gamma_k needs e >= 0")
    n, perm, metric = system.n, system.perm, system.metric
    spreads = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = i, j
            spread = Fraction(0)
            for _ in range(k):
                if metric[a][b] > spread:
                    spread = metric[a][b]
                a, b = perm[a], perm[b]
            spreads[(i, j)] = spread
    for t in reversed(system.realized_distances()):
        if all(spread <= e for (i, j), spread in spreads.items() if metric[i][j] <= t):
            return t
    return Fraction(0)


# --- small helpers used across modules --------------------------------------


def separated_pairs(system: FiniteSystem, phi: Observable) -> tuple:
    """Index pairs (i, j), i < j, with phi(x_i) != phi(x_j)."""
    check_domain(system, phi)
    vals = [phi[p] for p in system.points]
    return tuple(
        (i, j)
        for i in range(system.n)
        for j in range(i + 1, system.n)
        if vals[i] != vals[j]
    )
