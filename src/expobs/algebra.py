"""Pointwise algebra of observables, expansivity-law checking, limit
stability, and transport along conjugacies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatch, NonConvergent, NotAConjugacy
from .exact import INF, ExtScalar, GaussianRational, format_extended
from .model import FiniteSystem, Observable, check_domain
from .relations import (
    OrbitDistanceTable,
    delta_star,
    indistinguishability_quotient,
    is_constant_on_blocks,
    orbit_distance_table,
    separated_pairs,
    sigma_star,
)
from .sampling import random_observable, random_scalar


def _aligned(phi: Observable, psi: Observable):
    if phi.domain() != psi.domain():
        raise DomainMismatch("observables live on different point sets")
    return [(p, v, psi[p]) for p, v in phi.entries]


def obs_add(phi: Observable, psi: Observable) -> Observable:
    return Observable(tuple((p, a + b) for p, a, b in _aligned(phi, psi)))


def obs_mul(phi: Observable, psi: Observable) -> Observable:
    return Observable(tuple((p, a * b) for p, a, b in _aligned(phi, psi)))


def obs_scale(lam: GaussianRational, phi: Observable) -> Observable:
    return Observable(tuple((p, lam * v) for p, v in phi.entries))


def obs_conjugate(phi: Observable) -> Observable:
    return Observable(tuple((p, v.conjugate()) for p, v in phi.entries))


# --- law suite ---------------------------------------------------------------


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


def _ext_min(a: ExtScalar, b: ExtScalar) -> ExtScalar:
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def _ext_ge(a: ExtScalar, b: ExtScalar) -> bool:
    if a is INF:
        return True
    if b is INF:
        return False
    return a >= b


def law_suite(system: FiniteSystem, trials: int, seed: int) -> LawReport:
    """Check the subalgebra laws of delta-star on random observable triples.

    Laws checked per trial (d* = delta_star):
      d*(phi+psi) >= min(d* phi, d* psi)
      d*(phi*psi) >= min(d* phi, d* psi)
      d*(lam phi) == d* phi   for lam != 0;   d*(0 phi) == INF
      d*(conj phi) == d* phi
    """
    rng = random.Random(seed)
    table = orbit_distance_table(system)
    violations = []
    notes = []
    for t in range(trials):
        phi = random_observable(rng, system)
        psi = random_observable(rng, system)
        lam = random_scalar(rng)
        d_phi = delta_star(system, phi, table)
        d_psi = delta_star(system, psi, table)
        floor = _ext_min(d_phi, d_psi)
        d_sum = delta_star(system, obs_add(phi, psi), table)
        if not _ext_ge(d_sum, floor):
            violations.append(LawViolation(t, "sum", f"{format_extended(d_sum)} < {format_extended(floor)}"))
        d_prod = delta_star(system, obs_mul(phi, psi), table)
        if not _ext_ge(d_prod, floor):
            violations.append(LawViolation(t, "product", f"{format_extended(d_prod)} < {format_extended(floor)}"))
        d_scale = delta_star(system, obs_scale(lam, phi), table)
        if lam.is_zero():
            if d_scale is not INF:
                violations.append(LawViolation(t, "scale-zero", format_extended(d_scale)))
        elif d_scale != d_phi:
            violations.append(LawViolation(t, "scale", f"{format_extended(d_scale)} != {format_extended(d_phi)}"))
        d_conj = delta_star(system, obs_conjugate(phi), table)
        if d_conj != d_phi:
            violations.append(LawViolation(t, "conjugate", f"{format_extended(d_conj)} != {format_extended(d_phi)}"))
        s_phi = sigma_star(system, phi)
        s_psi = sigma_star(system, psi)
        s_sum = sigma_star(system, obs_add(phi, psi))
        if not _ext_ge(s_sum, _ext_min(s_phi, s_psi)):
            notes.append(
                LawViolation(
                    t,
                    "sigma-sum",
                    f"sigma*(phi+psi) = {format_extended(s_sum)} < "
                    f"min = {format_extended(_ext_min(s_phi, s_psi))}",
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
    table = orbit_distance_table(system)
    for phi in seq:
        check_domain(system, phi)
        if not _ext_gt(delta_star(system, phi, table), delta):
            raise ValueError("sequence element is not delta-expansive to begin with")
    if separated_pairs(system, seq[-1]) != separated_pairs(system, seq[-2]):
        raise NonConvergent("separation pattern differs between the last two elements")
    limit = seq[-1]
    quotient = indistinguishability_quotient(system, delta, table)
    holds = is_constant_on_blocks(limit, quotient)
    return LimitStabilityReport(
        delta=Fraction(delta),
        limit=limit,
        delta_star_limit=delta_star(system, limit, table),
        holds=holds,
        blocks=quotient.blocks,
    )


def _ext_gt(a: ExtScalar, b) -> bool:
    return True if a is INF else a > b


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
        images = []
        for y in source.points:
            if y not in mapping:
                raise NotAConjugacy(f"h undefined at {y!r}")
            images.append(mapping[y])
        if set(images) != set(target.points):
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
        h = self.h
        pts = self.source.points
        return all(
            self.source.dist(a, b) == self.target.dist(h[a], h[b])
            for i, a in enumerate(pts)
            for b in pts[i + 1:]
        )


def transport(conj: Conjugacy, phi: Observable) -> Observable:
    """Pull phi on the target back to the source: (H phi)(y) = phi(h(y))."""
    check_domain(conj.target, phi)
    h = conj.h
    return Observable(tuple((y, phi[h[y]]) for y in conj.source.points))


def omega_h(conj: Conjugacy, t: Fraction) -> Fraction:
    """Distortion modulus of h: max d_target(h a, h b) over d_source(a,b) <= t."""
    h = conj.h
    pts = conj.source.points
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if conj.source.dist(a, b) <= t:
                img = conj.target.dist(h[a], h[b])
                if img > best:
                    best = img
    return best


@dataclass(frozen=True)
class ConjugacyInvarianceReport:
    isometry: bool
    omega_table: tuple  # ((t, omega_h(t)), ...) over realized source distances
    entries: tuple      # per-observable (delta_star_target, delta_star_source)
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def conjugacy_invariance_report(
    conj: Conjugacy, observables=None, seed: int = 0, samples: int = 8
) -> ConjugacyInvarianceReport:
    """Transport observables along h and confirm the expansivity transfer law:
    for every realized t with omega_h(t) < delta_star_target(phi), the pulled
    back observable satisfies delta_star_source(H phi) > t.  For isometries the
    two constants must agree exactly.
    """
    if observables is None:
        rng = random.Random(seed)
        observables = [random_observable(rng, conj.target) for _ in range(samples)]
    src_table = orbit_distance_table(conj.source)
    tgt_table = orbit_distance_table(conj.target)
    realized = conj.source.realized_distances()
    omega_tab = tuple((t, omega_h(conj, t)) for t in realized)
    iso = conj.is_isometry()
    entries = []
    violations = []
    for idx, phi in enumerate(observables):
        d_tgt = delta_star(conj.target, phi, tgt_table)
        pulled = transport(conj, phi)
        d_src = delta_star(conj.source, pulled, src_table)
        entries.append((d_tgt, d_src))
        for t, w in omega_tab:
            if _ext_gt(d_tgt, w) and not _ext_gt(d_src, t):
                violations.append(
                    f"observable {idx}: omega_h({t}) = {w} < "
                    f"{format_extended(d_tgt)} but delta_star(H phi) = "
                    f"{format_extended(d_src)} <= {t}"
                )
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
