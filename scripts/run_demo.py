#!/usr/bin/env python3
"""A guided tour of the toolkit, printing exact results at every stop.

Covers: orbit separation on finite systems, the indistinguishability
quotient, algebraic laws of the separation threshold, symbolic dynamical
balls, and circle/interval wandering-arc certificates.
"""

import json
import sys
from fractions import Fraction

from expobs.algebra import law_suite
from expobs.circle import (
    analyze_rotation_case,
    certify,
    interval_pipeline,
    parse_circle_map,
    parse_pl_observable,
    rotation_number,
    separation_gap,
    serialize_certificate,
    verify_certificate,
)
from expobs.exact import format_extended
from expobs.library import (
    line_swap_system,
    m0_circle_document,
    rigid_rotation_document,
    rotation_grid,
    torus_cat_grid,
    valley_interval_document,
)
from expobs.model import distance_observable, mesh
from expobs.relations import (
    delta_star,
    e_star,
    indistinguishability_quotient,
    orbit_distance_table,
    sigma_star,
)
from expobs.report import analyze, render_report
from expobs.shift import (
    CylinderObservable,
    EPPoint,
    SubshiftSpec,
    check_ball_inclusion,
    find_asymptotic_pair,
)


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 66 - len(text)))


def main() -> int:
    banner("four points on a line, neighbors swapped")
    l4 = line_swap_system()
    table = orbit_distance_table(l4)
    print("orbit sup-distance table:")
    for p, row in zip(l4.points, table.values):
        print(f"  {p}: " + "  ".join(str(v) for v in row))
    print(f"mesh {mesh(l4)}, separation constant e* = {e_star(l4)}")
    phi = distance_observable(l4, l4.points[0])
    print(
        f"distance observable at point {l4.points[0]}: "
        f"delta* = {format_extended(delta_star(l4, phi))}, "
        f"sigma*^2 = {format_extended(sigma_star(l4, phi))}"
    )
    quotient = indistinguishability_quotient(l4, Fraction(1))
    print(f"blocks at threshold 1: {quotient.blocks}")

    banner("torus grid map: expansive at resolution")
    cat5 = torus_cat_grid()
    print(
        f"e* = {e_star(cat5)} strictly above mesh {mesh(cat5)} "
        f"on {cat5.n} points"
    )

    banner("algebraic laws of the separation threshold")
    report = law_suite(cat5, trials=200, seed=11)
    print(
        f"{report.checks} law checks over {report.trials} random triples: "
        f"{'all passed' if report.passed else report.violations}"
    )

    banner("full analysis report (rendered)")
    print(render_report(analyze(l4, (phi,), seed=3)))

    banner("binary shift: dynamical balls inside observable stable sets")
    base = EPPoint.make("0", alphabet="01")
    obs = CylinderObservable.injective(1, "01")
    ball = check_ball_inclusion(base, obs, Fraction(1, 2), "s", 7)
    print(
        f"ball around 0^inf at eps {ball.requested_eps} "
        f"(effective {ball.effective_eps}): {ball.points_in_ball} of "
        f"{ball.points_enumerated} points, counterexamples: "
        f"{len(ball.counterexamples)}"
    )
    pair = find_asymptotic_pair(SubshiftSpec.make("01"), 6, [obs])
    print(f"smallest asymptotic pair: {pair.x} and {pair.y}")

    banner("circle map M0: certified wandering arc")
    m0 = parse_circle_map(m0_circle_document())
    print(f"rotation number: {rotation_number(m0)}")
    cert = certify(m0, Fraction(1, 16))
    doc = serialize_certificate(cert)
    print(json.dumps({k: doc[k] for k in ("arc", "probe", "mode", "horizon")}))
    print(f"replay: {'ok' if verify_certificate(cert).ok else 'VIOLATIONS'}")
    identity = parse_pl_observable({"breakpoints": ["0", "1"], "values": ["0", "1"]})
    print(f"separation gap against phi(x) = x: {separation_gap(cert, identity)}")

    banner("rigid rotation by 3/8: grid collapse instead")
    case = analyze_rotation_case(parse_circle_map(rigid_rotation_document("3/8")))
    print(
        f"invariant grid of {case.grid_size} points, e* = {case.e_star}, "
        f"single block at 1/{case.grid_size}: {case.single_block}"
    )

    banner("interval map fixing 0, 1/2, 1")
    cert = interval_pipeline(valley_interval_document(), Fraction(1, 16))
    print(
        f"certified arc ({cert.arc[0]}, {cert.arc[1]}), "
        f"verify: {'ok' if verify_certificate(cert).ok else 'VIOLATIONS'}"
    )

    rot8 = rotation_grid(8)
    banner("equicontinuous collapse on the 8-point rotation grid")
    blocks = indistinguishability_quotient(rot8, Fraction(1, 8)).blocks
    print(f"blocks at 1/8: {len(blocks)} (every observable is constant there)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
