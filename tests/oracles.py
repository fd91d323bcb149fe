"""Independent brute-force reference implementations used only by the tests.

Everything here is deliberately naive: iterate the map the full order of the
permutation and take honest maxima/minima, so the fast pair-cycle code in the
package is checked against arithmetic that cannot share its bugs.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product

from expobs.circle import PLCircleMap
from expobs.exact import INF, GaussianRational, format_extended
from expobs.model import FiniteSystem, Observable
from expobs.sampling import random_metric
from expobs.shift import CylinderObservable, EPPoint, in_dynamical_ball


def permutation_order(system: FiniteSystem) -> int:
    """lcm of the cycle lengths of the point permutation."""
    seen = [False] * system.n
    order = 1
    for start in range(system.n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = system.perm[i]
            length += 1
        order = math.lcm(order, length)
    return order


def orbit_pairs(system: FiniteSystem, i: int, j: int):
    """All index pairs (f^n x_i, f^n x_j) for n = 0 .. order-1.

    f has finite order, so this covers every integer power, negative ones
    included.
    """
    a, b = i, j
    for _ in range(permutation_order(system)):
        yield a, b
        a, b = system.perm[a], system.perm[b]


def brute_orbit_sup(system: FiniteSystem, i: int, j: int) -> Fraction:
    return max(system.metric[a][b] for a, b in orbit_pairs(system, i, j))


def brute_e_star(system: FiniteSystem) -> Fraction:
    return min(
        brute_orbit_sup(system, i, j)
        for i in range(system.n)
        for j in range(i + 1, system.n)
    )


def brute_delta_star(system: FiniteSystem, phi: Observable):
    """min over value-separated pairs of the true orbit sup; INF if constant."""
    vals = [phi[p] for p in system.points]
    best = None
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if vals[i] != vals[j]:
                d = brute_orbit_sup(system, i, j)
                if best is None or d < best:
                    best = d
    return INF if best is None else best


def brute_sigma_star(system: FiniteSystem, phi: Observable):
    """min over value-separated pairs of the largest |phi(f^n x) - phi(f^n y)|^2
    along the pair's orbit; INF if phi is constant."""
    vals = [phi[p] for p in system.points]
    best = None
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if vals[i] != vals[j]:
                top = max(abs_sq(vals[a] - vals[b]) for a, b in orbit_pairs(system, i, j))
                if best is None or top < best:
                    best = top
    return INF if best is None else best


def brute_orbit_cycles(system: FiniteSystem) -> tuple:
    """((D, cycle), ...): each unvisited pair i < j in document order seeds
    its cycle, walked in first-visit order, and the cycles are then sorted
    stably by D."""
    seen = set()
    cycles = []
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if (i, j) in seen:
                continue
            cycle = []
            for a, b in orbit_pairs(system, i, j):
                pair = (min(a, b), max(a, b))
                if pair not in seen:
                    seen.add(pair)
                    cycle.append(pair)
            cycles.append((brute_orbit_sup(system, i, j), tuple(cycle)))
    return tuple(sorted(cycles, key=lambda entry: entry[0]))


def brute_pairs_by_distance(system: FiniteSystem) -> tuple:
    """Index pairs (i, j), i < j, sorted stably by d(x_i, x_j)."""
    n, metric = system.n, system.metric
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(sorted(pairs, key=lambda pair: metric[pair[0]][pair[1]]))


def tied_system(rng: random.Random, n: int) -> FiniteSystem:
    """n points at distances drawn from {1, 3/2, 2}, so most distances tie;
    any such matrix is a metric, as 2 <= 1 + 1.  The map is a random
    permutation."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    points = [str(i) for i in range(n)]
    images = points[:]
    rng.shuffle(images)
    return FiniteSystem.build(points, rows, dict(zip(points, images)))


def brute_separated_pairs(system: FiniteSystem, phi: Observable) -> tuple:
    vals = [phi[p] for p in system.points]
    return tuple(
        (i, j)
        for i in range(system.n)
        for j in range(i + 1, system.n)
        if vals[i] != vals[j]
    )


def pointwise(phi: Observable, psi: Observable, op) -> Observable:
    """phi op psi entry by entry, in phi's entry order."""
    return Observable(tuple((p, op(a, psi[p])) for p, a in phi.entries))


def pointwise_map(phi: Observable, op) -> Observable:
    return Observable(tuple((p, op(v)) for p, v in phi.entries))


def brute_periodic_level(system: FiniteSystem, phi: Observable, k: int, dstar_k):
    """(distinct values, violations) over the k-fixed points by comparing
    values: values in order of first appearance, violating pairs (x, y) in
    document order with d(x, y) < dstar_k and phi(x) != phi(y)."""
    power = brute_power_perm(system, k)
    fixed = [p for i, p in enumerate(system.points) if power[i] == i]
    distinct = []
    for p in fixed:
        if phi[p] not in distinct:
            distinct.append(phi[p])
    violations = [
        (x, y)
        for a, x in enumerate(fixed)
        for y in fixed[a + 1:]
        if system.dist(x, y) < dstar_k and phi[x] != phi[y]
    ]
    return tuple(distinct), tuple(violations)


def brute_is_expansive(system: FiniteSystem, phi: Observable, delta: Fraction) -> bool:
    """Level sets absorb delta-close orbit pairs: whenever the whole orbit of a
    pair stays within delta, the observable agrees along that whole orbit.
    """
    vals = [phi[p] for p in system.points]
    for i in range(system.n):
        for j in range(i + 1, system.n):
            pairs = list(orbit_pairs(system, i, j))
            if all(system.metric[a][b] <= delta for a, b in pairs):
                if any(vals[a] != vals[b] for a, b in pairs):
                    return False
    return True


def all_realized_orbit_sups(system: FiniteSystem) -> tuple:
    vals = {
        brute_orbit_sup(system, i, j)
        for i in range(system.n)
        for j in range(i + 1, system.n)
    }
    return tuple(sorted(vals))


def brute_omega_map(system: FiniteSystem, t: Fraction) -> Fraction:
    """max of the true orbit sup over pairs with d <= t; 0 if there are none."""
    return max(
        (
            brute_orbit_sup(system, i, j)
            for i in range(system.n)
            for j in range(i + 1, system.n)
            if system.metric[i][j] <= t
        ),
        default=Fraction(0),
    )


def brute_omega_obs(system: FiniteSystem, phi: Observable, t: Fraction) -> Fraction:
    vals = [phi[p] for p in system.points]
    best = Fraction(0)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if system.metric[i][j] <= t:
                best = max(best, abs_sq(vals[i] - vals[j]))
    return best


def brute_omega_h(conj, t: Fraction) -> Fraction:
    h = conj.h
    pts = conj.source.points
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if conj.source.dist(a, b) <= t:
                best = max(best, conj.target.dist(h[a], h[b]))
    return best


def scan_transfer_violations(idx, omega_table, d_tgt, d_src) -> list:
    """`conjugacy_invariance_report`'s transfer-law lines for observable idx,
    found by testing every omega_h table entry."""
    return [
        f"observable {idx}: omega_h({t}) = {w} < {format_extended(d_tgt)} but "
        f"delta_star(H phi) = {format_extended(d_src)} <= {t}"
        for t, w in omega_table
        if d_tgt > w and d_src <= t
    ]


def fraction_is_isometry(conj) -> bool:
    """Whether h preserves every distance, by comparing the Fraction metric
    entries of each pair of source points with those of their images."""
    h = conj.h
    pts = conj.source.points
    return all(
        conj.source.dist(a, b) == conj.target.dist(h[a], h[b])
        for i, a in enumerate(pts)
        for b in pts[i + 1:]
    )


def brute_gamma_k(system: FiniteSystem, k: int, e: Fraction) -> Fraction:
    """Largest realized t whose pairs all keep their first k iterates within e,
    found by testing every realized t from the top."""
    n, perm, metric = system.n, system.perm, system.metric
    spreads = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = i, j
            spread = Fraction(0)
            for _ in range(k):
                spread = max(spread, metric[a][b])
                a, b = perm[a], perm[b]
            spreads[(i, j)] = spread
    realized = sorted({metric[i][j] for i, j in spreads})
    for t in reversed(realized):
        if all(s <= e for (i, j), s in spreads.items() if metric[i][j] <= t):
            return t
    return Fraction(0)


def brute_chain_components(system: FiniteSystem, t: Fraction) -> tuple:
    """Blocks of the graph d(x, y) <= t by repeated relabelling to the least
    reachable index, each block in document order, blocks by first point."""
    return _brute_blocks(system, lambda i, j: system.metric[i][j] <= t)


def brute_quotient_blocks(system: FiniteSystem, delta: Fraction) -> tuple:
    """Blocks of the graph D(x, y) <= delta, D by iterating the map."""
    return _brute_blocks(system, lambda i, j: brute_orbit_sup(system, i, j) <= delta)


def _brute_blocks(system: FiniteSystem, linked) -> tuple:
    label = list(range(system.n))
    changed = True
    while changed:
        changed = False
        for i in range(system.n):
            for j in range(system.n):
                if i != j and label[j] < label[i] and linked(i, j):
                    label[i] = label[j]
                    changed = True
    blocks = {}
    for i in range(system.n):
        blocks.setdefault(label[i], []).append(system.points[i])
    return tuple(tuple(blocks[key]) for key in sorted(blocks))


def brute_power_perm(system: FiniteSystem, k: int) -> tuple:
    """The index permutation of f^k by |k| compositions of f or its inverse."""
    step = list(system.perm)
    if k < 0:
        for i, j in enumerate(system.perm):
            step[j] = i
    perm = list(range(system.n))
    for _ in range(abs(k)):
        perm = [step[i] for i in perm]
    return tuple(perm)


def triangle_violation(points, rows):
    """The first (i, j, k) with d(i, j) > d(i, k) + d(k, j), as the message
    ingest raises for it, by a plain triple loop over the Fractions; None if
    the triangle inequality holds."""
    n = len(points)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return (
                        "triangle inequality fails at "
                        f"({points[i]},{points[j]},{points[k]}): "
                        f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                    )
    return None


def raw_description_count(letters: int, bound: int) -> int:
    """Raw descriptions `brute_enumerate` builds, by the same loops over
    total size, tail and core lengths and offset sign."""
    count = 0
    for total in range(2, bound + 1):
        for llen in range(1, total + 1):
            for clen in range(0, total - llen + 1):
                for rlen in range(1, total - llen - clen + 1):
                    signs = 1 if total == llen + clen + rlen else 2
                    count += letters ** (llen + clen + rlen) * signs
    return count


@lru_cache(maxsize=None)
def brute_enumerate(alphabet: tuple, bound: int) -> tuple:
    """All distinct EPPoints with description size <= bound, ordered by
    (size, left, core, right, offset): every raw description of size
    <= bound goes through `EPPoint.make`, and the canonical results of size
    <= bound are kept once each."""
    seen = {}
    for total in range(2, bound + 1):
        for llen in range(1, total + 1):
            for clen in range(0, total - llen + 1):
                for rlen in range(1, total - llen - clen + 1):
                    off_abs = total - llen - clen - rlen
                    offsets = (0,) if off_abs == 0 else (-off_abs, off_abs)
                    for offset in offsets:
                        for lw in product(alphabet, repeat=llen):
                            for cw in product(alphabet, repeat=clen):
                                for rw in product(alphabet, repeat=rlen):
                                    p = EPPoint.make(
                                        "".join(lw), "".join(cw), "".join(rw),
                                        offset, alphabet,
                                    )
                                    if p.size <= bound:
                                        key = (p.left, p.core, p.right, p.offset)
                                        seen.setdefault(key, p)
    return tuple(
        sorted(seen.values(), key=lambda p: (p.size, p.left, p.core, p.right, p.offset))
    )


def brute_ball(x: EPPoint, eps: Fraction, side: str, bound: int) -> list:
    """The points of `brute_enumerate` in the one-sided dynamical ball around
    x, in enumeration order, by one `in_dynamical_ball` call per point."""
    return [y for y in brute_enumerate(tuple(x.alphabet), bound)
            if in_dynamical_ball(x, y, eps, side)]


def abs_sq(z: GaussianRational) -> Fraction:
    """Squared modulus; the canonical exact magnitude of a Gaussian rational."""
    return z.real * z.real + z.imag * z.imag


def inverse_perm(system: FiniteSystem) -> tuple:
    """The index permutation of f^-1."""
    inv = [0] * system.n
    for i, j in enumerate(system.perm):
        inv[j] = i
    return tuple(inv)


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


def min_pair_distance(system: FiniteSystem, x, y) -> Fraction:
    """min_n d(f^n x, f^n y) over the pair's own cycle; positive for distinct
    points of a finite system."""
    return min(_pair_orbit(system, x, y))


def eval_at(phi: CylinderObservable, x: EPPoint, n: int = 0) -> GaussianRational:
    """phi evaluated along the orbit: phi(shift^n x)."""
    return phi.table[x.window(n - phi.window, n + phi.window + 1)]


def random_isometric_system(rng: random.Random, max_points: int = 12) -> FiniteSystem:
    """System whose map preserves the metric (so D = d everywhere).

    Two families: scaled rotation grids Z/n, and identity maps over arbitrary
    repaired metrics.
    """
    if rng.random() < 0.5:
        n = rng.randint(2, max_points)
        step = rng.randrange(n)
        scale = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
        points = tuple(str(i) for i in range(n))
        rows = [
            [scale * Fraction(min(abs(i - j), n - abs(i - j)), n) for j in range(n)]
            for i in range(n)
        ]
        mapping = {points[i]: points[(i + step) % n] for i in range(n)}
        return FiniteSystem.build(points, rows, mapping)
    n = rng.randint(2, max_points)
    points = tuple(str(i) for i in range(n))
    rows = random_metric(rng, n)
    mapping = {p: p for p in points}
    return FiniteSystem.build(points, rows, mapping)


def conjugate_by_rotation(mapping: PLCircleMap, c: Fraction) -> PLCircleMap:
    """R_c o F o R_{-c}: the same circle dynamics seen from a rotated chart."""
    c = Fraction(c)
    breaks = {Fraction(0)}
    for b in mapping.breakpoints:
        x = b + c
        breaks.add(x - math.floor(x))
    bs = sorted(breaks)
    return PLCircleMap.build(bs, [mapping.eval_lift(x - c) + c for x in bs])


def interp(xs, ys, x: Fraction) -> Fraction:
    """Value at x of the PL function through the nodes (xs[i], ys[i]), xs
    strictly increasing: a binary search for the segment, then the chord."""
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"{x} outside [{xs[0]}, {xs[-1]}]")
    i = min(bisect_right(xs, x), len(xs) - 1)
    x1, x2, y1, y2 = xs[i - 1], xs[i], ys[i - 1], ys[i]
    return y1 + (x - x1) * (y2 - y1) / (x2 - x1)


def lift_nodes(mapping: PLCircleMap) -> tuple:
    """(xs, ys): the breakpoints and lift values closed by (1, F(0) + 1)."""
    return (mapping.breakpoints + (Fraction(1),),
            mapping.values + (mapping.values[0] + 1,))


def interp_lift(mapping: PLCircleMap, x: Fraction) -> Fraction:
    """F(x) through `interp` on the nodes over [0, 1], shifted by floor(x)."""
    n = math.floor(x)
    return interp(*lift_nodes(mapping), x - n) + n


def scan_affine_span_slope(mapping: PLCircleMap, lo: Fraction, hi: Fraction):
    """Slope of F on [lo, hi] when no breakpoint b + n lies strictly inside,
    found by trying every breakpoint at every integer shift; else None."""
    if hi < lo:
        lo, hi = hi, lo
    if lo == hi:
        return None
    for n in range(math.floor(lo), math.floor(hi) + 1):
        for b in mapping.breakpoints:
            if lo < b + n < hi:
                return None
    return (interp_lift(mapping, hi) - interp_lift(mapping, lo)) / (hi - lo)


def inverse_interp(xs, ys, y: Fraction) -> Fraction:
    """Preimage of y under a strictly increasing PL node list, by a linear
    scan for the first segment whose values reach y."""
    for i in range(len(xs) - 1):
        y1, y2 = ys[i], ys[i + 1]
        if y1 <= y <= y2:
            return xs[i] + (y - y1) * (xs[i + 1] - xs[i]) / (y2 - y1)
    raise ValueError(f"{y} outside the value range [{ys[0]}, {ys[-1]}]")


def scan_inverse_lift(mapping: PLCircleMap, y: Fraction) -> Fraction:
    """F^-1(y) through `inverse_interp` on the lift's nodes over [0, 1]."""
    xs, ys = lift_nodes(mapping)
    k = math.floor(y - ys[0])
    yr = y - k
    if yr >= ys[-1]:
        k += 1
        yr -= 1
    return inverse_interp(xs, ys, yr) + k


def brute_compose(outer: PLCircleMap, inner: PLCircleMap) -> PLCircleMap:
    """The lift of outer o inner with every node value interpolated afresh:
    inner's breakpoints and the pulled-back outer breakpoints, each sent
    through inner and then outer."""
    breaks = set(inner.breakpoints)
    for b in outer.breakpoints:
        x = inner.inverse_lift(b)
        breaks.add(x - math.floor(x))
    bs = sorted(breaks)
    return PLCircleMap.build(bs, [outer.eval_lift(inner.eval_lift(b)) for b in bs])
