"""Bi-infinite eventually periodic sequences under the shift.

An EPPoint stores a left periodic word (repeated toward -infinity), a finite
core, a right periodic word (repeated toward +infinity) and an integer offset:
coordinate i holds

    left[(i - start) % |left|]   for i <  start          (start = offset)
    core[i - start]              for start <= i < end    (end = offset + |core|)
    right[(i - end) % |right|]   for i >= end

Construction always reduces to a canonical form (primitive tails, minimal
core, normalized boundary), so two EPPoints are equal exactly when their
canonical tuples coincide.  All decisions about infinite tails reduce to
finite windows through the periods, hence everything here is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from types import MappingProxyType

from .errors import (
    AlphabetMismatch,
    InvalidDocument,
    NoPairFound,
)
from .exact import GaussianRational

_MAX_BOUNDARY_PUSH_NOTE = (
    "boundary normalization must terminate within |left|+|right| steps "
    "for primitive unequal tails"
)


def _primitive_root(word: str) -> str:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def _rot_left(word: str) -> str:
    return word[1:] + word[0]


def _rot_right(word: str) -> str:
    return word[-1] + word[:-1]


def _canonicalize(left: str, core: str, right: str, offset: int):
    left = _primitive_root(left)
    right = _primitive_root(right)
    changed = True
    while changed:
        changed = False
        while core and core[0] == left[0]:
            core = core[1:]
            offset += 1
            left = _rot_left(left)
            changed = True
        while core and core[-1] == right[-1]:
            core = core[:-1]
            right = _rot_right(right)
            changed = True
    if not core:
        if left == right:
            period = len(left)
            word = "".join(left[(j - offset) % period] for j in range(period))
            return word, "", word, 0
        guard = len(left) + len(right)
        steps = 0
        while right[0] == left[0]:
            offset += 1
            left = _rot_left(left)
            right = _rot_left(right)
            steps += 1
            assert steps <= guard, _MAX_BOUNDARY_PUSH_NOTE
    return left, core, right, offset


@dataclass(frozen=True)
class EPPoint:
    """Canonical eventually periodic point of a full shift."""

    left: str
    core: str
    right: str
    offset: int
    alphabet: tuple = field(default=None, compare=False)

    @classmethod
    def make(cls, left: str, core: str = "", right: str = None,
             offset: int = 0, alphabet=None) -> "EPPoint":
        if right is None:
            right = left
        if not left or not right:
            raise InvalidDocument("periodic tails must be nonempty words")
        symbols = set(left) | set(core) | set(right)
        if alphabet is not None:
            alphabet = tuple(alphabet)
            if any(len(s) != 1 for s in alphabet):
                raise InvalidDocument("alphabet symbols must be single characters")
            if not symbols <= set(alphabet):
                raise AlphabetMismatch(
                    f"symbols {sorted(symbols - set(alphabet))} outside alphabet"
                )
        cleft, ccore, cright, coffset = _canonicalize(left, core, right, offset)
        return cls(cleft, ccore, cright, coffset, alphabet)

    # -- geometry ------------------------------------------------------------

    @property
    def start(self) -> int:
        return self.offset

    @property
    def end(self) -> int:
        return self.offset + len(self.core)

    @property
    def size(self) -> int:
        """Description size |left| + |core| + |right| + |offset|."""
        return len(self.left) + len(self.core) + len(self.right) + abs(self.offset)

    def at(self, i: int) -> str:
        if i < self.start:
            return self.left[(i - self.start) % len(self.left)]
        if i < self.end:
            return self.core[i - self.start]
        return self.right[(i - self.end) % len(self.right)]

    def window(self, lo: int, hi: int) -> str:
        """The word x_lo ... x_{hi-1}, built from whole tail repetitions."""
        if hi <= lo:
            return ""
        parts = []
        cut_l = min(hi, self.start)
        if lo < cut_l:
            m = cut_l - lo
            phase = (lo - self.start) % len(self.left)
            reps = (phase + m + len(self.left) - 1) // len(self.left)
            parts.append((self.left * reps)[phase:phase + m])
        core_lo = max(lo, self.start)
        core_hi = min(hi, self.end)
        if core_lo < core_hi:
            parts.append(self.core[core_lo - self.start:core_hi - self.start])
        cut_r = max(lo, self.end)
        if cut_r < hi:
            m = hi - cut_r
            phase = (cut_r - self.end) % len(self.right)
            reps = (phase + m + len(self.right) - 1) // len(self.right)
            parts.append((self.right * reps)[phase:phase + m])
        return "".join(parts)

    def __str__(self):
        return f"...{self.left}|{self.core}|{self.right}... @ {self.offset}"


def _check_alphabets(x: EPPoint, y: EPPoint):
    if x.alphabet is not None and y.alphabet is not None and x.alphabet != y.alphabet:
        raise AlphabetMismatch(f"{x.alphabet} vs {y.alphabet}")


def shift(x: EPPoint, n: int) -> EPPoint:
    """shift(x, n)_i = x_{i+n}; canonical form is restored."""
    return EPPoint.make(x.left, x.core, x.right, x.offset - n, x.alphabet)


def _right_agreement_horizon(x: EPPoint, y: EPPoint) -> int:
    """Coordinate H such that agreement on [..., H) forces agreement beyond."""
    return max(x.end, y.end) + lcm(len(x.right), len(y.right))


def _left_agreement_horizon(x: EPPoint, y: EPPoint) -> int:
    return min(x.start, y.start) - lcm(len(x.left), len(y.left))


def sym_distance(x: EPPoint, y: EPPoint) -> Fraction:
    """2^(-m) with m the least |i| where the sequences disagree; 0 if equal."""
    _check_alphabets(x, y)
    if (x.left, x.core, x.right, x.offset) == (y.left, y.core, y.right, y.offset):
        return Fraction(0)
    bound = max(
        abs(_left_agreement_horizon(x, y)), abs(_right_agreement_horizon(x, y))
    ) + 1
    wx = x.window(-bound, bound + 1)
    wy = y.window(-bound, bound + 1)
    for m in range(bound + 1):
        if wx[bound + m] != wy[bound + m] or wx[bound - m] != wy[bound - m]:
            return Fraction(1, 2 ** m)
    raise AssertionError("distinct canonical points must disagree within the horizon")


def sym_orbit_sup(x: EPPoint, y: EPPoint) -> Fraction:
    """Orbit sup-distance under the shift: 0 for equal points, else 1.

    Any single disagreement can be shifted to coordinate 0, where it costs
    2^0 = 1, the diameter of the space.
    """
    _check_alphabets(x, y)
    return Fraction(0) if sym_distance(x, y) == 0 else Fraction(1)


def snap_epsilon(eps: Fraction) -> int:
    """Largest k >= 0 with 2^(-k) <= eps (radii are snapped down to powers)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("radius must be positive")
    k = 0
    while Fraction(1, 2 ** k) > eps:
        k += 1
    return k


def in_dynamical_ball(x: EPPoint, y: EPPoint, eps: Fraction, side: str) -> bool:
    """Membership in the one-sided dynamical ball at radius 2^(-k).

    side 's': the sequences agree on every coordinate i >= -k (forward orbit
    stays 2^(-k)-close); side 'u': mirrored, agreement on i <= k.
    """
    _check_alphabets(x, y)
    k = snap_epsilon(eps)
    if side == "s":
        # One full lcm period beyond both cores (and beyond -k itself)
        # decides agreement on the whole ray [-k, infinity).
        hi = max(x.end, y.end, -k) + lcm(len(x.right), len(y.right))
        return x.window(-k, hi) == y.window(-k, hi)
    if side == "u":
        lo = min(x.start, y.start, k + 1) - lcm(len(x.left), len(y.left))
        return x.window(lo, k + 1) == y.window(lo, k + 1)
    raise ValueError("side must be 's' or 'u'")


def stable_equiv(x: EPPoint, y: EPPoint, side: str) -> bool:
    """Eventual tail agreement: some N with x_i = y_i for all i >= N (side 's'),
    mirrored for side 'u'.  Decided on one full period beyond both cores.
    """
    _check_alphabets(x, y)
    if side == "s":
        b = max(x.end, y.end)
        p = lcm(len(x.right), len(y.right))
        return x.window(b, b + p) == y.window(b, b + p)
    if side == "u":
        a = min(x.start, y.start)
        p = lcm(len(x.left), len(y.left))
        return x.window(a - p, a) == y.window(a - p, a)
    raise ValueError("side must be 's' or 'u'")


# --- cylinder observables ----------------------------------------------------


@dataclass(frozen=True)
class CylinderObservable:
    """Observable reading a symmetric window: phi(x) = table[x_{-w} .. x_{w}]."""

    window: int
    alphabet: tuple
    entries: tuple  # ((word, GaussianRational), ...) in enumeration order

    @classmethod
    def make(cls, window: int, alphabet, table) -> "CylinderObservable":
        if window < 0:
            raise InvalidDocument("window must be >= 0")
        alphabet = tuple(alphabet)
        width = 2 * window + 1
        entries = []
        for letters in product(alphabet, repeat=width):
            word = "".join(letters)
            if word not in table:
                raise InvalidDocument(f"table misses the window word {word!r}")
            entries.append((word, table[word]))
        return cls(window, alphabet, tuple(entries))

    @classmethod
    def injective(cls, window: int, alphabet) -> "CylinderObservable":
        """Table sending distinct window words to distinct values.

        Any cylinder observable of the same window factors through this one,
        so checks quantified over 'all tables' reduce to it.
        """
        alphabet = tuple(alphabet)
        width = 2 * window + 1
        table = {
            "".join(w): GaussianRational.of(i)
            for i, w in enumerate(product(alphabet, repeat=width))
        }
        return cls.make(window, alphabet, table)

    @cached_property
    def table(self) -> MappingProxyType:
        """Word -> value lookup, built once and shared, hence read-only."""
        return MappingProxyType(dict(self.entries))

    def value_of_word(self, word: str) -> GaussianRational:
        return self.table[word]

    def eval_at(self, x: EPPoint, n: int = 0) -> GaussianRational:
        """phi evaluated along the orbit: phi(shift^n x)."""
        return self.table[x.window(n - self.window, n + self.window + 1)]


def obs_stable_equiv(x: EPPoint, y: EPPoint, phi: CylinderObservable, side: str) -> bool:
    """Whether |phi(shift^n x) - phi(shift^n y)| is eventually 0 as n -> +inf
    (side 's') or n -> -inf (side 'u').

    Beyond both cores the window words are jointly periodic, so one full
    period of exact zero differences decides the limit.
    """
    _check_alphabets(x, y)
    w = phi.window
    if side == "s":
        n0 = max(x.end, y.end) + w
        p = lcm(len(x.right), len(y.right))
        rng = range(n0, n0 + p)
    elif side == "u":
        n1 = min(x.start, y.start) - w
        p = lcm(len(x.left), len(y.left))
        rng = range(n1 - p, n1)
    else:
        raise ValueError("side must be 's' or 'u'")
    wx = x.window(rng.start - w, rng.stop + w + 1)
    wy = y.window(rng.start - w, rng.stop + w + 1)
    width = 2 * w + 1
    for idx in range(len(rng)):
        word_x = wx[idx:idx + width]
        word_y = wy[idx:idx + width]
        if word_x != word_y and phi.value_of_word(word_x) != phi.value_of_word(word_y):
            return False
    return True


# --- enumeration and searches ------------------------------------------------


@lru_cache(maxsize=32)
def enumerate_points(alphabet: tuple, bound: int) -> tuple:
    """All distinct EPPoints with description size <= bound, ordered by
    (size, left, core, right, offset).

    Every canonical point of size <= bound is its own raw description, so
    iterating raw descriptions of size <= bound and filtering on canonical
    size is exhaustive.
    """
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


@dataclass(frozen=True)
class SubshiftSpec:
    """Full shift on an alphabet restricted by a finite forbidden-word list."""

    alphabet: tuple
    forbidden: tuple

    @classmethod
    def make(cls, alphabet, forbidden=()) -> "SubshiftSpec":
        alphabet = tuple(alphabet)
        if not alphabet or any(len(s) != 1 for s in alphabet):
            raise InvalidDocument("alphabet must be nonempty single characters")
        for word in forbidden:
            if not word or not set(word) <= set(alphabet):
                raise InvalidDocument(f"forbidden word {word!r} outside alphabet")
        return cls(alphabet, tuple(forbidden))

    def admissible(self, x: EPPoint) -> bool:
        """No forbidden word occurs anywhere in x.

        Every factor of x already appears inside the core extended by one tail
        period plus the word length on both sides, so that window decides.
        """
        for word in self.forbidden:
            m = len(word)
            lo = x.start - len(x.left) - m
            hi = x.end + len(x.right) + m
            if word in x.window(lo, hi):
                return False
        return True


@dataclass(frozen=True)
class BallInclusionReport:
    requested_eps: Fraction
    effective_eps: Fraction
    k: int
    side: str
    bound: int
    points_enumerated: int
    points_in_ball: int
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_ball_inclusion(
    x: EPPoint,
    phi: CylinderObservable,
    eps: Fraction,
    side: str,
    bound: int,
) -> BallInclusionReport:
    """Exhaustively confirm that every enumerable point of the one-sided
    dynamical ball around x has phi-differences along the orbit dying out on
    that side.  Counterexamples would refute the windowed-observable theorem,
    so the expected value is always 'none'.
    """
    if x.alphabet is None:
        raise InvalidDocument("base point needs an explicit alphabet")
    k = snap_epsilon(eps)
    candidates = enumerate_points(tuple(x.alphabet), bound)
    in_ball = [y for y in candidates if in_dynamical_ball(x, y, eps, side)]
    counterexamples = tuple(
        y for y in in_ball if not obs_stable_equiv(x, y, phi, side)
    )
    return BallInclusionReport(
        requested_eps=Fraction(eps),
        effective_eps=Fraction(1, 2 ** k),
        k=k,
        side=side,
        bound=bound,
        points_enumerated=len(candidates),
        points_in_ball=len(in_ball),
        counterexamples=counterexamples,
    )


@dataclass(frozen=True)
class AsymptoticPairReport:
    x: EPPoint
    y: EPPoint
    side: str
    verified_observables: int


def find_asymptotic_pair(
    spec: SubshiftSpec, bound: int, observables=(), side: str = "s"
) -> AsymptoticPairReport:
    """Smallest-description pair of distinct admissible points whose forward
    (side 's') tails eventually agree; their observable differences then die
    out along the orbit for every supplied cylinder observable (verified).

    Doubly asymptotic pairs (tails agreeing in both time directions) are
    preferred — they witness the convergence bidirectionally — with one-sided
    pairs as fallback, so a pair is found whenever any exists within bound.
    """
    points = [
        p for p in enumerate_points(tuple(spec.alphabet), bound) if spec.admissible(p)
    ]
    other = "u" if side == "s" else "s"

    def scan(require_both: bool):
        for i, px in enumerate(points):
            for py in points[i + 1:]:
                if stable_equiv(px, py, side) and (
                    not require_both or stable_equiv(px, py, other)
                ):
                    return px, py
        return None

    found = scan(require_both=True) or scan(require_both=False)
    if found is None:
        raise NoPairFound(
            f"no distinct stably equivalent admissible pair with description <= {bound}"
        )
    x, y = found
    for phi in observables:
        assert obs_stable_equiv(x, y, phi, side), (
            "stable equivalence must force observable convergence"
        )
    return AsymptoticPairReport(
        x=x, y=y, side=side, verified_observables=len(observables)
    )


# --- interchange -------------------------------------------------------------


def parse_point(document, alphabet=None) -> EPPoint:
    doc = document
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidDocument("point document must be an object")
    for key in ("left", "right"):
        if key not in doc or not isinstance(doc[key], str):
            raise InvalidDocument(f"point document needs a word at {key!r}")
    offset = doc.get("offset", 0)
    if not isinstance(offset, int):
        raise InvalidDocument("offset must be an integer")
    return EPPoint.make(
        doc["left"], doc.get("core", ""), doc["right"], offset, alphabet
    )


def serialize_point(x: EPPoint) -> dict:
    doc = {"left": x.left, "core": x.core, "right": x.right}
    if x.offset:
        doc["offset"] = x.offset
    return doc


def parse_cylinder_observable(document) -> CylinderObservable:
    doc = document
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from None
    for key in ("window", "alphabet", "table"):
        if key not in doc:
            raise InvalidDocument(f"cylinder observable document lacks {key!r}")
    table = {w: GaussianRational.parse_pair(v) for w, v in doc["table"].items()}
    return CylinderObservable.make(doc["window"], tuple(doc["alphabet"]), table)


def serialize_cylinder_observable(phi: CylinderObservable) -> dict:
    return {
        "window": phi.window,
        "alphabet": list(phi.alphabet),
        "table": {w: v.to_pair() for w, v in phi.entries},
    }
