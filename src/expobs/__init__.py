"""Exact expansivity analysis for finite, symbolic and piecewise-linear dynamics.

Everything is computed in rational (or Gaussian-rational) arithmetic: orbit
separation tables, optimal expansivity constants, indistinguishability
quotients, algebraic law suites, eventually-periodic shift points, and
replayable certificates for circle and interval homeomorphisms.

The package root imports none of its modules; import what you use from them
(`from expobs.relations import delta_star`).
"""

__version__ = "0.1.0"

__all__ = [
    "algebra", "circle", "cli", "errors", "exact", "library",
    "model", "relations", "report", "sampling", "shift", "svg",
]
