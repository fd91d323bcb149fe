"""Pointwise algebra of observables, expansivity-law checking, limit
stability, and transport along conjugacies.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction

from .errors import HorizonExceeded, NonConvergent, NotAConjugacy
from .exact import INF, ExtScalar, GaussianRational, format_extended
from .model import FiniteSystem, Observable, _levels
from .relations import (
    delta_star,
    indistinguishability_quotient,
    is_constant_on_blocks,
    modulus_at,
    modulus_table,
    separated_pairs,
    sigma_star,
)
from .sampling import random_observable, random_scalar


# Each operation runs once per level class, or once per pair of classes that
# meet, on the classes' int pairs: phi's values are (re + i*im)/s over its
# scale s, psi's over t.  The results are laid out over phi's points in phi's
# order and reduced once by `Observable._from_classes`.


def _combine(phi: Observable, psi: Observable, op, scale: int) -> Observable:
    """The observable with op(phi's ints, psi's ints)/scale at each point."""
    ids_phi, ints_phi, _ = phi.levels
    ints_psi = psi.levels[1]
    pairs = list(zip(ids_phi, psi.ids_on(phi.points)))
    results = {}
    for a, b in pairs:
        if (a, b) not in results:
            results[a, b] = op(ints_phi[a], ints_psi[b])
    return Observable._from_classes(phi.points, pairs, results, scale)


def obs_add(phi: Observable, psi: Observable) -> Observable:
    """phi + psi over the lcm m of the scales: a/s + b/t = (a*(m/s) + b*(m/t))/m."""
    s, t = phi.levels[2], psi.levels[2]
    m = math.lcm(s, t)
    u, w = m // s, m // t
    return _combine(
        phi, psi, lambda a, b: (a[0] * u + b[0] * w, a[1] * u + b[1] * w), m
    )


def obs_mul(phi: Observable, psi: Observable) -> Observable:
    """phi * psi over the product of the scales."""
    return _combine(
        phi,
        psi,
        lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
        phi.levels[2] * psi.levels[2],
    )


def obs_scale(lam: GaussianRational, phi: Observable) -> Observable:
    """lam * phi, with lam as the ints (x, y) over its own denominator d."""
    _, ((x, y),), d = _levels((lam,))
    ids, ints, s = phi.levels
    return Observable._from_classes(
        phi.points, ids, [(x * re - y * im, x * im + y * re) for re, im in ints], s * d
    )


def obs_conjugate(phi: Observable) -> Observable:
    """Conjugation negates each class's im.  It is one-to-one and keeps the
    gcd with the scale, so the ids and the scale stay as they are."""
    ids, ints, s = phi.levels
    return Observable._stored(phi.points, (ids, tuple((re, -im) for re, im in ints), s))


# --- law suite ---------------------------------------------------------------

# Most law-suite trials and conjugacy samples one call may run.  Through the
# CLI, a run at either limit took 4 to 13 s on 4-point and 24-point systems
# (2-core host, Python 3.11).
LAW_TRIAL_LIMIT = 10_000
CONJUGACY_SAMPLE_LIMIT = 100_000


def _check_count(name: str, count: int, limit: int) -> None:
    """Refuse a negative count, and a count past its limit before any work."""
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")
    if count > limit:
        raise HorizonExceeded(f"{name} = {count} is over the limit of {limit}")


@dataclass(frozen=True)
class LawViolation:
    trial: int
    law: str
    detail: str


@dataclass(frozen=True)
class LawReport:
    """Outcome of randomized delta-star law checking.

    violations must be empty (the laws are theorems on finite systems); the
    sigma-sum watch is informational only: the sum law for the strong constant
    is not asserted either way, finite counterexamples are recorded.
    """

    seed: int
    trials: int
    checks: int
    violations: tuple
    sigma_sum_notes: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_document(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "violations": [
                {"trial": v.trial, "law": v.law, "detail": v.detail}
                for v in self.violations
            ],
            "sigma_sum_notes": [
                {"trial": n.trial, "law": n.law, "detail": n.detail}
                for n in self.sigma_sum_notes
            ],
            "passed": self.passed,
        }


def law_suite(system: FiniteSystem, trials: int, seed: int) -> LawReport:
    """Check the subalgebra laws of delta-star on random observable triples.

    Laws checked per trial (d* = delta_star):
      d*(phi+psi) >= min(d* phi, d* psi)
      d*(phi*psi) >= min(d* phi, d* psi)
      d*(lam phi) == d* phi   for lam != 0;   d*(0 phi) == INF
      d*(conj phi) == d* phi
    """
    _check_count("trials", trials, LAW_TRIAL_LIMIT)
    rng = random.Random(seed)
    violations = []
    notes = []
    for t in range(trials):
        phi = random_observable(rng, system)
        psi = random_observable(rng, system)
        lam = random_scalar(rng)
        d_phi = delta_star(system, phi)
        d_psi = delta_star(system, psi)
        floor = min(d_phi, d_psi)
        total = obs_add(phi, psi)
        d_sum = delta_star(system, total)
        if d_sum < floor:
            violations.append(LawViolation(t, "sum", f"{format_extended(d_sum)} < {format_extended(floor)}"))
        d_prod = delta_star(system, obs_mul(phi, psi))
        if d_prod < floor:
            violations.append(LawViolation(t, "product", f"{format_extended(d_prod)} < {format_extended(floor)}"))
        d_scale = delta_star(system, obs_scale(lam, phi))
        if lam.is_zero():
            if d_scale is not INF:
                violations.append(LawViolation(t, "scale-zero", format_extended(d_scale)))
        elif d_scale != d_phi:
            violations.append(LawViolation(t, "scale", f"{format_extended(d_scale)} != {format_extended(d_phi)}"))
        d_conj = delta_star(system, obs_conjugate(phi))
        if d_conj != d_phi:
            violations.append(LawViolation(t, "conjugate", f"{format_extended(d_conj)} != {format_extended(d_phi)}"))
        s_phi = sigma_star(system, phi)
        s_psi = sigma_star(system, psi)
        s_sum = sigma_star(system, total)
        if s_sum < min(s_phi, s_psi):
            notes.append(
                LawViolation(
                    t,
                    "sigma-sum",
                    f"sigma*(phi+psi) = {format_extended(s_sum)} < "
                    f"min = {format_extended(min(s_phi, s_psi))}",
                )
            )
    return LawReport(
        seed=seed,
        trials=trials,
        checks=trials * 5,
        violations=tuple(violations),
        sigma_sum_notes=tuple(notes),
    )


# --- limit stability ---------------------------------------------------------


@dataclass(frozen=True)
class LimitStabilityReport:
    delta: Fraction
    limit: Observable
    delta_star_limit: ExtScalar
    holds: bool
    blocks: tuple


def limit_stability_check(
    system: FiniteSystem, sequence, delta: Fraction
) -> LimitStabilityReport:
    """Treat the last element of the sequence as its limit and certify that it
    is still delta-expansive, via constancy on the delta-quotient blocks.

    Convergence criterion (default): the final two elements must induce the
    same separated-pair set; otherwise the separation pattern is still moving
    and the check refuses with NonConvergent.
    """
    seq = list(sequence)
    if len(seq) < 2:
        raise ValueError("need at least two observables in the sequence")
    for phi in seq:
        if delta_star(system, phi) <= delta:
            raise ValueError("sequence element is not delta-expansive to begin with")
    if separated_pairs(system, seq[-1]) != separated_pairs(system, seq[-2]):
        raise NonConvergent("separation pattern differs between the last two elements")
    limit = seq[-1]
    quotient = indistinguishability_quotient(system, delta)
    holds = is_constant_on_blocks(limit, quotient)
    return LimitStabilityReport(
        delta=Fraction(delta),
        limit=limit,
        delta_star_limit=delta_star(system, limit),
        holds=holds,
        blocks=quotient.blocks,
    )


# --- conjugacy ---------------------------------------------------------------


@dataclass(frozen=True)
class Conjugacy:
    """h : source -> target with target_map(h(y)) = h(source_map(y)) for all y."""

    source: FiniteSystem
    target: FiniteSystem
    pairs: tuple  # ((source_point, target_point), ...) in source document order

    @classmethod
    def build(cls, source: FiniteSystem, target: FiniteSystem, mapping) -> "Conjugacy":
        if source.n != target.n:
            raise NotAConjugacy("spaces have different sizes")
        target_points = set(target.points)
        images = []
        for y in source.points:
            if y not in mapping:
                raise NotAConjugacy(f"h undefined at {y!r}")
            image = mapping[y]
            if not isinstance(image, Hashable) or image not in target_points:
                raise NotAConjugacy(f"h sends {y!r} outside the target points: {image!r}")
            images.append(image)
        if set(images) != target_points:
            raise NotAConjugacy("h is not a bijection onto the target points")
        h = dict(zip(source.points, images))
        for y in source.points:
            if target.apply(h[y]) != h[source.apply(y)]:
                raise NotAConjugacy(
                    f"h does not intertwine the maps at {y!r}: "
                    f"f(h(y)) = {target.apply(h[y])!r}, h(g(y)) = {h[source.apply(y)]!r}"
                )
        return cls(source, target, tuple(h.items()))

    @property
    def h(self) -> dict:
        return dict(self.pairs)

    def is_isometry(self) -> bool:
        """Whether h preserves distances, compared on the int metrics.  An
        isometry carries the multiset of distances over, so both metrics have
        the same common denominator; unequal scales already answer no."""
        (source, source_scale), (target, target_scale) = (
            self.source.int_metric, self.target.int_metric
        )
        if source_scale != target_scale:
            return False
        images = _image_indices(self)
        return all(
            source[i][j] == target[images[i]][images[j]]
            for i in range(len(images))
            for j in range(i + 1, len(images))
        )


def transport(conj: Conjugacy, phi: Observable) -> Observable:
    """Pull phi on the target back to the source: (H phi)(y) = phi(h(y))."""
    ids = phi.ids_on(tuple(image for _, image in conj.pairs))
    _, ints, scale = phi.levels
    return Observable._from_classes(conj.source.points, ids, ints, scale)


def _image_indices(conj: Conjugacy) -> list:
    """Target index of h(y) for each source index y."""
    return [conj.target.index(image) for _, image in conj.pairs]


def omega_h_table(conj: Conjugacy) -> tuple:
    """((t, omega_h(t)), ...) over the realized source distances t."""
    images = _image_indices(conj)
    ints, scale = conj.target.int_metric
    return modulus_table(
        conj.source, lambda i, j: ints[images[i]][images[j]], Fraction(1, scale)
    )


def omega_h(conj: Conjugacy, t: Fraction) -> Fraction:
    """Distortion modulus of h: max d_target(h a, h b) over d_source(a,b) <= t."""
    return modulus_at(omega_h_table(conj), t)


@dataclass(frozen=True)
class ConjugacyInvarianceReport:
    isometry: bool
    omega_table: tuple  # ((t, omega_h(t)), ...) over realized source distances
    entries: tuple      # per-observable (delta_star_target, delta_star_source)
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _transfer_violations(idx: int, omega_tab: tuple, d_tgt: ExtScalar,
                         d_src: ExtScalar) -> list:
    """Observable idx's realized t with omega_h(t) < d_tgt but d_src <= t.
    omega_h is nondecreasing, so the first condition holds on a prefix of the
    table and the second on a suffix: two bisections, and INF for either
    constant compares above every entry."""
    start = bisect_left(omega_tab, d_src, key=lambda entry: entry[0])
    stop = bisect_left(omega_tab, d_tgt, key=lambda entry: entry[1])
    return [
        f"observable {idx}: omega_h({t}) = {w} < {format_extended(d_tgt)} but "
        f"delta_star(H phi) = {format_extended(d_src)} <= {t}"
        for t, w in omega_tab[start:stop]
    ]


def conjugacy_invariance_report(
    conj: Conjugacy, observables=None, seed: int = 0, samples: int = 8
) -> ConjugacyInvarianceReport:
    """Transport observables along h and confirm the expansivity transfer law:
    for every realized t with omega_h(t) < delta_star_target(phi), the pulled
    back observable satisfies delta_star_source(H phi) > t.  For isometries the
    two constants must agree exactly.
    """
    _check_count("samples", samples, CONJUGACY_SAMPLE_LIMIT)
    if observables is None:
        rng = random.Random(seed)
        observables = [random_observable(rng, conj.target) for _ in range(samples)]
    omega_tab = omega_h_table(conj)
    iso = conj.is_isometry()
    entries = []
    violations = []
    for idx, phi in enumerate(observables):
        d_tgt = delta_star(conj.target, phi)
        pulled = transport(conj, phi)
        d_src = delta_star(conj.source, pulled)
        entries.append((d_tgt, d_src))
        violations += _transfer_violations(idx, omega_tab, d_tgt, d_src)
        if iso and d_src != d_tgt:
            violations.append(
                f"observable {idx}: isometric conjugacy changed delta_star: "
                f"{format_extended(d_tgt)} -> {format_extended(d_src)}"
            )
    return ConjugacyInvarianceReport(
        isometry=iso,
        omega_table=omega_tab,
        entries=tuple(entries),
        violations=tuple(violations),
    )
