"""Small library of worked systems and maps used in tests, docs and demos."""

from __future__ import annotations

from fractions import Fraction

from .model import FiniteSystem


def line_swap_system() -> FiniteSystem:
    """Four points on a line, d = |i - j|, map swapping 0<->1 and 2<->3.

    The classic example where orbit separation exceeds plain distance:
    D(1, 2) = 3 although d(1, 2) = 1.
    """
    points = ("0", "1", "2", "3")
    rows = [[Fraction(abs(i - j)) for j in range(4)] for i in range(4)]
    mapping = {"0": "1", "1": "0", "2": "3", "3": "2"}
    return FiniteSystem.build(points, rows, mapping)


def rotation_grid(n: int, step: int = 1) -> FiniteSystem:
    """Z/n with the circle metric min(|i-j|, n-|i-j|)/n and rotation by step."""
    if n < 2:
        raise ValueError("rotation_grid needs n >= 2")
    points = tuple(str(i) for i in range(n))
    rows = [
        [Fraction(min(abs(i - j), n - abs(i - j)), n) for j in range(n)]
        for i in range(n)
    ]
    mapping = {points[i]: points[(i + step) % n] for i in range(n)}
    return FiniteSystem.build(points, rows, mapping)


def torus_cat_grid() -> FiniteSystem:
    """(Z/5)^2 with the max of coordinate circle metrics and the linear map
    (x, y) -> (2x + y, x + y) mod 5 (determinant 1, hence a bijection).
    """
    def c5(t: int) -> int:
        t %= 5
        return min(t, 5 - t)

    pts = [(x, y) for x in range(5) for y in range(5)]
    points = tuple(f"{x},{y}" for x, y in pts)
    rows = [
        [Fraction(max(c5(a - c), c5(b - d)), 5) for (c, d) in pts]
        for (a, b) in pts
    ]
    mapping = {
        f"{x},{y}": f"{(2 * x + y) % 5},{(x + y) % 5}" for x, y in pts
    }
    return FiniteSystem.build(points, rows, mapping)


def m0_circle_document() -> dict:
    """Degree-one PL circle map with rotation number 0 and Fix = {0, 1/2}.

    Both complementary arcs are wandering: points drift from the repelling
    side of one fixed point to the attracting side of the next.
    """
    return {
        "breakpoints": ["0", "1/4", "1/2", "3/4"],
        "lift_values": ["0", "3/8", "1/2", "7/8"],
    }


def plateau_circle_document() -> dict:
    """PL circle map fixing [1/4, 1/2] pointwise and pushing everything else
    forward; its wandering region is one circular arc through 0.
    """
    return {
        "breakpoints": ["0", "1/4", "1/2", "3/4"],
        "lift_values": ["1/8", "1/4", "1/2", "7/8"],
    }


def quarter_turn_circle_document() -> dict:
    """Rotation number 1/4: x + 1/4 after a bump that fixes every multiple of
    1/4 (slope 3/2, then 1/2, on each quarter), so F^4 - 1 fixes exactly those
    points and every quarter arc wanders.
    """
    return {
        "breakpoints": ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8"],
        "lift_values": ["1/4", "7/16", "1/2", "11/16", "3/4", "15/16", "1", "19/16"],
    }


def rigid_rotation_document(rho: str) -> dict:
    return {"breakpoints": ["0"], "lift_values": [rho]}


def valley_interval_document() -> dict:
    """Increasing PL interval map fixing exactly {0, 1/2, 1}."""
    return {
        "breakpoints": ["0", "1/4", "1/2", "3/4", "1"],
        "values": ["0", "3/8", "1/2", "7/8", "1"],
    }


def reflection_interval_document() -> dict:
    """Decreasing homeomorphism x -> 1 - x; analyzed through its square."""
    return {"breakpoints": ["0", "1"], "values": ["1", "0"]}
