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

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import inf, lcm
from types import MappingProxyType

from .errors import (
    AlphabetMismatch,
    HorizonExceeded,
    InvalidDocument,
    InvariantViolation,
    NoPairFound,
)
from .exact import GaussianRational
from .model import _as_dict

_MAX_BOUNDARY_PUSH_NOTE = (
    "boundary normalization must terminate within |left|+|right| steps "
    "for primitive unequal tails"
)
_MAX_COMMON_SUFFIX_NOTE = (
    "primitive unequal tails must share fewer than |left|+|right| final letters"
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
            if steps > guard:
                raise InvariantViolation(_MAX_BOUNDARY_PUSH_NOTE)
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
    """Refuse two points over different letter sets; `001` and `01` agree,
    as in `enumerate_points`.  Equal tuples, the usual case, skip the sets."""
    a, b = x.alphabet, y.alphabet
    if a is not None and b is not None and a != b and set(a) != set(b):
        raise AlphabetMismatch(f"{a} vs {b}")


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
    raise InvariantViolation("distinct canonical points must disagree within the horizon")


def sym_orbit_sup(x: EPPoint, y: EPPoint) -> Fraction:
    """Orbit sup-distance under the shift: 0 for equal points, else 1.

    Any single disagreement can be shifted to coordinate 0, where it costs
    2^0 = 1, the diameter of the space.
    """
    return Fraction(0) if sym_distance(x, y) == 0 else Fraction(1)


def snap_epsilon(eps: Fraction) -> int:
    """Least k >= 0 with 2^(-k) <= eps: the largest power-of-two radius not
    above eps (radii are snapped down to powers)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("radius must be positive")
    c = -(-eps.denominator // eps.numerator)  # ceil(1 / eps)
    return (c - 1).bit_length()               # least k with 2^k >= c


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
        if isinstance(window, bool) or not isinstance(window, int):
            raise InvalidDocument(f"window must be an integer, got {window!r}")
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
        try:
            return self.table[word]
        except KeyError:
            raise AlphabetMismatch(
                f"window word {word!r} is not over the observable's alphabet"
            ) from None


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

# Most raw descriptions an enumeration may range over: "01" at bound 11
# (434 052) and "012" at bound 8 (398 556) fit, "01" at bound 12 (1 081 212)
# does not.
ENUMERATION_LIMIT = 1_000_000


def _check_enumeration_budget(letters: int, bound: int) -> None:
    """Raise HorizonExceeded when more than ENUMERATION_LIMIT raw descriptions
    have size <= bound, counted without building any.

    Words of total length w = llen + clen + rlen, both tails nonempty, come in
    w(w-1)/2 length splits and letters^w spellings, and take each offset with
    |offset| <= bound - w: once for 0 and twice for every other magnitude.
    The count stops as soon as it passes the limit, so any bound is cheap.
    """
    count = 0
    for w in range(2, bound + 1):
        count += letters ** w * (w * (w - 1) // 2) * (2 * (bound - w) + 1)
        if count > ENUMERATION_LIMIT:
            raise HorizonExceeded(
                f"bound {bound} over {letters} letters needs more than "
                f"{ENUMERATION_LIMIT} raw descriptions"
            )


@lru_cache(maxsize=32)
def enumerate_points(alphabet: tuple, bound: int) -> tuple:
    """All distinct EPPoints with description size <= bound, ordered by
    (size, left, core, right, offset).

    Every canonical point of size <= bound is its own raw description, so
    the points are exactly the raw descriptions of size <= bound that
    `_canonicalize` leaves as they are.  Those are the descriptions with
    primitive tails that meet one of:

    - the core is nonempty, core[0] != left[0] and core[-1] != right[-1]
      (neither core trimming loop takes a letter);
    - the core is empty, left == right and offset == 0 (the periodic case,
      whose word is read from coordinate 0);
    - the core is empty and left[0] != right[0] (the boundary push does not
      move).

    They are generated directly from the primitive words of each length, so
    no other description is built.  Raises HorizonExceeded first when the
    raw descriptions over the distinct letters number more than
    ENUMERATION_LIMIT.
    """
    alphabet = tuple(alphabet)
    letters = tuple(dict.fromkeys(alphabet))
    _check_enumeration_budget(len(letters), bound)
    if bound >= 2 and any(len(s) != 1 for s in alphabet):
        raise InvalidDocument("alphabet symbols must be single characters")
    words = [[""]]
    for _ in range(1, bound):
        words.append([w + a for w in words[-1] for a in letters])
    primitive = [[w for w in ws if w not in (w + w)[1:-1]] for ws in words]
    # cores[clen][(a, b)]: cores of length clen starting off a and ending off b.
    cores = [None] + [
        {(a, b): [c for c in ws if c[0] != a and c[-1] != b]
         for a in letters for b in letters}
        for ws in words[1:-1]
    ]
    found = []
    for llen in range(1, bound):
        for rlen in range(1, bound - llen + 1):
            tails = llen + rlen
            room = bound - tails  # left for the core and |offset|
            for left in primitive[llen]:
                for right in primitive[rlen]:
                    if left == right:
                        found.append((tails, left, "", right, 0))
                    elif left[0] != right[0]:
                        found.extend((tails + abs(off), left, "", right, off)
                                     for off in range(-room, room + 1))
                    ends = (left[0], right[-1])
                    for clen in range(1, room + 1):
                        span = room - clen
                        for core in cores[clen][ends]:
                            found.extend((tails + clen + abs(off), left, core, right, off)
                                         for off in range(-span, span + 1))
    found.sort()
    return tuple(EPPoint(left, core, right, offset, alphabet)
                 for _, left, core, right, offset in found)


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


def _right_periodic_start(y: EPPoint):
    """Least e with y_i = y_{i+|right|} for every i >= e; -inf when y is
    periodic.

    A core ends exactly where the right tail takes over, because its last
    letter differs from right[-1].  Without a core, the left tail may go on
    spelling the right tail's pattern below `end` for as many letters as
    left^inf and right^inf share at their ends: ...10|0100... is periodic
    from -1.  Primitive unequal tails share fewer than |left| + |right| such
    letters (Fine and Wilf).
    """
    if y.core:
        return y.end
    left, right = y.left, y.right
    if left == right:
        return -inf
    guard = len(left) + len(right)
    common = 0
    while left[~(common % len(left))] == right[~(common % len(right))]:
        common += 1
        if common > guard:
            raise InvariantViolation(_MAX_COMMON_SUFFIX_NOTE)
    return y.end - common


def _left_periodic_end(y: EPPoint):
    """Greatest f with y_i = y_{i-|left|} for every i < f; +inf when y is
    periodic.  It is always `start`: the letter there, core[0] or right[0],
    differs from left[0] in canonical form."""
    if not y.core and y.left == y.right:
        return inf
    return y.start


@lru_cache(maxsize=32)
def _tail_groups(alphabet: tuple, bound: int, side: str) -> MappingProxyType:
    """Indices into `enumerate_points(alphabet, bound)` grouped by tail word:
    the right tail for side 's', the left tail for side 'u', each group in
    enumeration order.

    Indices rather than points, so the grouping keeps no enumeration alive
    and stays valid when the enumeration's cache is cleared: the points come
    back in the same order.  Int arrays hold them in a fifth of the memory
    of tuples; callers only read them.
    """
    groups = {}
    for i, y in enumerate(enumerate_points(alphabet, bound)):
        groups.setdefault(y.right if side == "s" else y.left, array("i")).append(i)
    return MappingProxyType(groups)


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

    Only points in x's tail class can lie in the ball.  A point y of the
    s-ball agrees with x on the ray [-k, infinity), so both sequences have the
    same least eventual period there; canonical tails are primitive, so
    y.right has the length p of x.right and is one of its rotations.  Those
    points are read from a grouping of the enumeration by right tail.

    Each of them is then decided by its periodic start e(y), the least e with
    y p-periodic on [e, infinity) (`_right_periodic_start`).  If e(x) > -k,
    the letter that breaks x's period lies on the ray, so every point of the
    ball has e(y) = e(x), and agreement on [-k, e(x) + p) carries on along
    the common period.  Otherwise x is periodic on the whole ray, so a point
    of the ball has e(y) <= -k, and agreement on [-k, -k + p) decides it
    (two periodic rays are equal exactly when their first periods are).
    Only candidates with a fitting periodic start get a window built.

    Side 'u' is the mirror over the ray (-infinity, k] with left tails and
    f(y), the greatest f with y left-periodic below f
    (`_left_periodic_end`); f(y) is simply `start` for every non-periodic
    canonical point.
    """
    if x.alphabet is None:
        raise InvalidDocument("base point needs an explicit alphabet")
    k = snap_epsilon(eps)
    alphabet = tuple(x.alphabet)
    # Enumerated over x's alphabet, so no candidate needs an alphabet check.
    candidates = enumerate_points(alphabet, bound)
    if side == "s":
        tail, periodic_start = x.right, _right_periodic_start
        start = periodic_start(x)
        lo, hi = -k, max(start, -k) + len(tail)

        def on_ray(e):
            return e > -k
    elif side == "u":
        tail, periodic_start = x.left, _left_periodic_end
        start = periodic_start(x)
        lo, hi = min(start, k + 1) - len(tail), k + 1

        def on_ray(f):
            return f <= k
    else:
        raise ValueError("side must be 's' or 'u'")
    ref = x.window(lo, hi)
    if on_ray(start):
        def fits(y):
            return periodic_start(y) == start
    else:
        def fits(y):
            return not on_ray(periodic_start(y))
    groups = _tail_groups(alphabet, bound, side)
    hits = sorted(
        i
        for r in range(len(tail))
        for i in groups.get(tail[r:] + tail[:r], ())
        if fits(candidates[i]) and candidates[i].window(lo, hi) == ref
    )
    in_ball = [candidates[i] for i in hits]
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
        if not obs_stable_equiv(x, y, phi, side):
            raise InvariantViolation(
                "stable equivalence must force observable convergence"
            )
    return AsymptoticPairReport(
        x=x, y=y, side=side, verified_observables=len(observables)
    )


# --- interchange -------------------------------------------------------------


def parse_point(document, alphabet=None) -> EPPoint:
    doc = _as_dict(document)
    for key in ("left", "right"):
        if key not in doc or not isinstance(doc[key], str):
            raise InvalidDocument(f"point document needs a word at {key!r}")
    core = doc.get("core", "")
    if not isinstance(core, str):
        raise InvalidDocument("point document needs a word at 'core'")
    offset = doc.get("offset", 0)
    if isinstance(offset, bool) or not isinstance(offset, int):
        raise InvalidDocument("offset must be an integer")
    return EPPoint.make(doc["left"], core, doc["right"], offset, alphabet)


def serialize_point(x: EPPoint) -> dict:
    doc = {"left": x.left, "core": x.core, "right": x.right}
    if x.offset:
        doc["offset"] = x.offset
    return doc


def parse_cylinder_observable(document) -> CylinderObservable:
    doc = _as_dict(document)
    for key in ("window", "alphabet", "table"):
        if key not in doc:
            raise InvalidDocument(f"cylinder observable document lacks {key!r}")
    alphabet = doc["alphabet"]
    if not isinstance(alphabet, (str, list)) or not all(isinstance(a, str) for a in alphabet):
        raise InvalidDocument("'alphabet' must be a string or a list of strings")
    if not isinstance(doc["table"], dict):
        raise InvalidDocument("'table' must be an object")
    table = {w: GaussianRational.parse_pair(v) for w, v in doc["table"].items()}
    return CylinderObservable.make(doc["window"], tuple(alphabet), table)


def serialize_cylinder_observable(phi: CylinderObservable) -> dict:
    return {
        "window": phi.window,
        "alphabet": list(phi.alphabet),
        "table": {w: v.to_pair() for w, v in phi.entries},
    }
