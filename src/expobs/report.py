"""Deterministic, self-describing analysis reports.

A report embeds its own inputs (system, observables, thresholds, resolution)
next to every derived number, so replaying any single quantity on the
embedded inputs must reproduce the embedded value exactly.  All scalars are
serialized as exact rational text and key order is fixed at construction, so
a report's bytes do not depend on the interpreter run or its hash seed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .errors import DegenerateSpace
from .exact import INF, format_extended, format_rational
from .model import (
    FiniteSystem,
    Observable,
    mesh,
    serialize_observable,
    serialize_system,
)
from .relations import (
    delta_star,
    e_star,
    fixed_points,
    indistinguishability_quotient,
    is_constant_on_blocks,
    omega_map,
    omega_obs,
    orbit_distance_table,
    periodic_level_report,
    pointwise_constants,
    sigma_star,
)

DEFAULT_PERIODIC_LEVELS = (1, 2, 3, 4, 5, 6)


def _ext(value) -> str:
    return format_extended(value)


def _separates_blocks(phi: Observable, quotient) -> bool:
    """True when the level partition of phi is exactly the quotient partition:
    constant on each block and distinct between blocks."""
    if not is_constant_on_blocks(phi, quotient):
        return False
    representatives = [phi[block[0]] for block in quotient.blocks]
    return len(set(representatives)) == len(representatives)


def analyze(
    system: FiniteSystem,
    observables=(),
    resolution: Fraction = None,
    thresholds=None,
    periodic_levels=DEFAULT_PERIODIC_LEVELS,
    seed: int = None,
) -> dict:
    """Full analysis of a finite system at a resolution (default: the mesh)."""
    observables = tuple(observables)
    if len(system.points) < 2:
        raise DegenerateSpace("analysis needs at least two points")
    h = mesh(system) if resolution is None else Fraction(resolution)
    if thresholds is None:
        thresholds = (h,)
    thresholds = tuple(Fraction(t) for t in thresholds)
    table = orbit_distance_table(system)
    estar = e_star(system, table)
    constants = pointwise_constants(system, table)
    realized_d = system.realized_distances()
    realized_orbit = tuple(
        sorted({table.dist(x, y) for x in system.points for y in system.points if x != y})
    )

    report = {
        "report": "analysis",
        "provenance": {"tool": "expobs", "version": __version__, "seed": seed},
        "inputs": {
            "system": serialize_system(system),
            "observables": [serialize_observable(phi) for phi in observables],
            "resolution": format_rational(h),
            "thresholds": [format_rational(t) for t in thresholds],
            "periodic_levels": list(periodic_levels),
        },
        "system": {
            "points": len(system.points),
            "mesh": format_rational(mesh(system)),
            "e_star": format_rational(estar),
            "expansive_at_resolution": h < estar,
            "pointwise_constants": {
                x: format_rational(constants[x]) for x in system.points
            },
            "pointwise_expansive_at_resolution": all(
                constants[x] > h for x in system.points
            ),
            "realized_distances": [format_rational(t) for t in realized_d],
            "realized_orbit_distances": [format_rational(t) for t in realized_orbit],
            "omega_map_table": [
                [format_rational(t), format_rational(omega_map(system, t, table))]
                for t in realized_d
            ],
        },
        "observables": [],
        "quotients": [],
        "periodic_levels": [],
    }

    h_quotient = indistinguishability_quotient(system, h, table=table)
    for index, phi in enumerate(observables):
        dstar = delta_star(system, phi, table)
        entry = {
            "index": index,
            "delta_star": _ext(dstar),
            "sigma_star_sq": _ext(sigma_star(system, phi)),
            "expansive_at_resolution": (dstar is INF) or h < dstar,
            "separation_at_resolution": _separates_blocks(phi, h_quotient),
            "omega_obs_table": [
                [format_rational(t), format_rational(omega_obs(system, phi, t))]
                for t in realized_d
            ],
        }
        report["observables"].append(entry)

    for t in thresholds:
        quotient = indistinguishability_quotient(system, t, table=table)
        report["quotients"].append(
            {
                "threshold": format_rational(t),
                "blocks": [list(block) for block in quotient.blocks],
            }
        )

    for k in periodic_levels:
        level = {
            "k": k,
            "fixed_count": len(fixed_points(system, k)),
            "per_observable": [],
        }
        for index, phi in enumerate(observables):
            rep = periodic_level_report(system, phi, k)
            level["per_observable"].append(
                {
                    "index": index,
                    "distinct_values": [v.to_pair() for v in rep.distinct_values],
                    "delta_star_power": _ext(rep.delta_star_power),
                    "holds": rep.holds,
                }
            )
        report["periodic_levels"].append(level)

    return report


def render_report(report: dict) -> str:
    """Canonical byte-stable text form of a report."""
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def law_report_document(law_report) -> dict:
    doc = law_report.to_document()
    doc["provenance"] = {"tool": "expobs", "version": __version__}
    return doc
