"""Command-line surface.

Every subcommand reads JSON documents (inline or by path), runs one pipeline,
and emits a deterministic JSON (or SVG) report.  Exit codes: 0 success,
1 invalid input or usage, 2 a mathematical property failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .algebra import Conjugacy, conjugacy_invariance_report, law_suite
from .circle import (
    analyze_rotation_case,
    certify,
    interval_pipeline,
    parse_certificate,
    parse_circle_map,
    parse_pl_observable,
    rotation_number,
    separation_gap,
    serialize_certificate,
    verify_certificate,
    wandering_intervals,
)
from .errors import AllFixed, ExpobsError, NotRigid, NoWanderingInterval
from .exact import format_rational, parse_rational
from .model import parse_observable, parse_system
from .relations import delta_star, indistinguishability_quotient, sigma_star
from .report import (
    DEFAULT_PERIODIC_LEVELS,
    analyze,
    law_report_document,
    render_report,
)
from .shift import (
    check_ball_inclusion,
    find_asymptotic_pair,
    in_dynamical_ball,
    obs_stable_equiv,
    parse_cylinder_observable,
    parse_point,
    serialize_point,
    snap_epsilon,
    stable_equiv,
    SubshiftSpec,
    sym_distance,
    sym_orbit_sup,
)
from .svg import plot
from .exact import format_extended

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2


def _load_document(text: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out: str = None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_doc(doc, out: str = None) -> None:
    _emit(json.dumps(doc, indent=2, ensure_ascii=True) + "\n", out)


def _fractions(values) -> tuple:
    return tuple(parse_rational(v) for v in values)


# --- subcommand implementations -------------------------------------------------


def _cmd_analyze(args) -> int:
    system = parse_system(_load_document(args.system))
    observables = tuple(
        parse_observable(_load_document(doc), system) for doc in args.observable
    )
    thresholds = _fractions(args.threshold) if args.threshold else None
    levels = (
        tuple(int(k) for k in args.levels.split(","))
        if args.levels
        else DEFAULT_PERIODIC_LEVELS
    )
    report = analyze(
        system,
        observables,
        resolution=parse_rational(args.resolution) if args.resolution else None,
        thresholds=thresholds,
        periodic_levels=levels,
        seed=args.seed,
    )
    _emit(render_report(report), args.out)
    return EXIT_OK


def _cmd_dstar(args) -> int:
    system = parse_system(_load_document(args.system))
    phi = parse_observable(_load_document(args.observable), system)
    doc = {
        "delta_star": format_extended(delta_star(system, phi)),
        "sigma_star_sq": format_extended(sigma_star(system, phi)),
    }
    _emit_doc(doc, args.out)
    return EXIT_OK


def _cmd_quotient(args) -> int:
    system = parse_system(_load_document(args.system))
    threshold = parse_rational(args.threshold)
    quotient = indistinguishability_quotient(system, threshold)
    doc = {
        "threshold": format_rational(threshold),
        "blocks": [list(b) for b in quotient.blocks],
    }
    _emit_doc(doc, args.out)
    return EXIT_OK


def _cmd_laws(args) -> int:
    system = parse_system(_load_document(args.system))
    report = law_suite(system, trials=args.trials, seed=args.seed)
    _emit_doc(law_report_document(report), args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_conjugacy(args) -> int:
    source = parse_system(_load_document(args.source))
    target = parse_system(_load_document(args.target))
    mapping = _load_document(args.map)
    conj = Conjugacy.build(source, target, mapping)
    observables = [
        parse_observable(_load_document(doc), source) for doc in args.observable
    ] or None
    report = conjugacy_invariance_report(
        conj, observables, seed=args.seed, samples=args.samples
    )
    doc = {
        "isometry": report.isometry,
        "omega_h_table": [
            [format_rational(t), format_rational(w)] for t, w in report.omega_table
        ],
        "entries": [
            {
                "delta_star_target": format_extended(tgt),
                "delta_star_source": format_extended(src),
            }
            for tgt, src in report.entries
        ],
        "violations": list(report.violations),
    }
    _emit_doc(doc, args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _sym_points(args, need_alphabet: bool = False):
    alphabet = tuple(args.alphabet) if args.alphabet else None
    x = parse_point(_load_document(args.x), alphabet)
    y = parse_point(_load_document(args.y), alphabet)
    if need_alphabet and x.alphabet is None:
        raise ExpobsError("this command needs --alphabet")
    return x, y


def _cmd_symbolic(args) -> int:
    sub = args.symbolic_command
    if sub == "distance":
        x, y = _sym_points(args)
        _emit_doc({"distance": format_rational(sym_distance(x, y))}, args.out)
        return EXIT_OK
    if sub == "orbit-sup":
        x, y = _sym_points(args)
        _emit_doc({"orbit_sup": format_rational(sym_orbit_sup(x, y))}, args.out)
        return EXIT_OK
    if sub == "ball":
        x, y = _sym_points(args)
        eps = parse_rational(args.epsilon)
        k = snap_epsilon(eps)
        doc = {
            "requested_epsilon": format_rational(eps),
            "effective_epsilon": format_rational(Fraction(1, 2 ** k)),
            "k": k,
            "side": args.side,
            "in_ball": in_dynamical_ball(x, y, eps, args.side),
        }
        _emit_doc(doc, args.out)
        return EXIT_OK
    if sub == "stable":
        x, y = _sym_points(args)
        doc = {"side": args.side, "stable_equivalent": stable_equiv(x, y, args.side)}
        _emit_doc(doc, args.out)
        return EXIT_OK
    if sub == "obs-stable":
        x, y = _sym_points(args)
        phi = parse_cylinder_observable(_load_document(args.observable))
        doc = {
            "side": args.side,
            "values_converge": obs_stable_equiv(x, y, phi, args.side),
        }
        _emit_doc(doc, args.out)
        return EXIT_OK
    if sub == "check-inclusion":
        alphabet = tuple(args.alphabet) if args.alphabet else None
        x = parse_point(_load_document(args.point), alphabet)
        phi = parse_cylinder_observable(_load_document(args.observable))
        report = check_ball_inclusion(
            x, phi, parse_rational(args.epsilon), args.side, args.bound
        )
        doc = {
            "requested_epsilon": format_rational(report.requested_eps),
            "effective_epsilon": format_rational(report.effective_eps),
            "k": report.k,
            "side": report.side,
            "bound": report.bound,
            "points_enumerated": report.points_enumerated,
            "points_in_ball": report.points_in_ball,
            "counterexamples": [serialize_point(p) for p in report.counterexamples],
            "passed": report.passed,
        }
        _emit_doc(doc, args.out)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if sub == "asymptotic-pair":
        spec = SubshiftSpec.make(tuple(args.alphabet), tuple(args.forbidden))
        observables = tuple(
            parse_cylinder_observable(_load_document(doc)) for doc in args.observable
        )
        pair = find_asymptotic_pair(spec, args.bound, observables, side=args.side)
        doc = {
            "x": serialize_point(pair.x),
            "y": serialize_point(pair.y),
            "side": pair.side,
            "verified_observables": pair.verified_observables,
        }
        _emit_doc(doc, args.out)
        return EXIT_OK
    raise ExpobsError(f"unknown symbolic subcommand {sub!r}")


def _cmd_circle(args) -> int:
    sub = args.circle_command
    if sub == "rotnum":
        mapping = parse_circle_map(_load_document(args.map))
        rho = rotation_number(mapping, args.q_max)
        doc = {
            "rotation_number": None if rho is None else format_rational(rho),
            "q_max": args.q_max,
        }
        _emit_doc(doc, args.out)
        return EXIT_OK
    if sub == "certify":
        mapping = parse_circle_map(_load_document(args.map))
        try:
            cert = certify(
                mapping, parse_rational(args.delta), q_max=args.q_max, n_max=args.n_max
            )
        except NoWanderingInterval:
            try:
                case = analyze_rotation_case(mapping)
            except NotRigid:
                doc = {
                    "outcome": "no_wandering_interval",
                    "note": (
                        "the reduced power fixes the whole circle but the map "
                        "is not a rigid rotation; every point is periodic"
                    ),
                }
                _emit_doc(doc, args.out)
                return EXIT_OK
            wander = wandering_intervals(mapping, args.q_max)
            doc = {
                "outcome": "rigid_rotation",
                "rotation_number": format_rational(case.rho),
                "wandering_intervals": len(wander.arcs),
                "grid_size": case.grid_size,
                "e_star": format_rational(case.e_star),
                "mesh": format_rational(case.mesh),
                "omega_identity": case.omega_identity,
                "quotient_threshold": format_rational(case.quotient_threshold),
                "quotient_blocks": [list(b) for b in case.blocks],
                "single_block": case.single_block,
                "identity_chain_match": case.identity_chain_match,
            }
            _emit_doc(doc, args.out)
            return EXIT_OK
        doc = serialize_certificate(cert)
        if args.gap_observable:
            phi = parse_pl_observable(_load_document(args.gap_observable))
            doc["separation_gap"] = format_rational(separation_gap(cert, phi))
        _emit_doc(doc, args.out)
        return EXIT_OK
    if sub == "verify":
        cert = parse_certificate(_load_document(args.cert))
        delta = parse_rational(args.delta) if args.delta else None
        result = verify_certificate(cert, delta)
        _emit_doc({"ok": result.ok, "violations": list(result.violations)}, args.out)
        return EXIT_OK if result.ok else EXIT_VIOLATION
    raise ExpobsError(f"unknown circle subcommand {sub!r}")


def _cmd_interval(args) -> int:
    if args.interval_command != "certify":
        raise ExpobsError(f"unknown interval subcommand {args.interval_command!r}")
    document = _load_document(args.map)
    try:
        cert = interval_pipeline(document, parse_rational(args.delta), n_max=args.n_max)
    except AllFixed as exc:
        _emit_doc(exc.report, args.out)
        return EXIT_OK
    _emit_doc(serialize_certificate(cert), args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    report = _load_document(args.report)
    _emit(plot(report), args.out)
    return EXIT_OK


# --- parser wiring ---------------------------------------------------------------


def _add_out(parser) -> None:
    parser.add_argument("--out", help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expobs",
        description="Exact expansivity analysis of finite, symbolic and PL systems.",
    )
    parser.add_argument("--version", action="version", version=f"expobs {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="full report for a finite system")
    p.add_argument("--system", required=True)
    p.add_argument("--observable", action="append", default=[])
    p.add_argument("--resolution", help='rational "p/q"; defaults to the mesh')
    p.add_argument("--threshold", action="append", default=[])
    p.add_argument("--levels", help="comma-separated periodic levels, e.g. 1,2,3")
    p.add_argument("--seed", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_analyze)

    p = commands.add_parser("dstar", help="optimal expansivity constants of one observable")
    p.add_argument("--system", required=True)
    p.add_argument("--observable", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_dstar)

    p = commands.add_parser("quotient", help="indistinguishability blocks at a threshold")
    p.add_argument("--system", required=True)
    p.add_argument("--threshold", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_quotient)

    p = commands.add_parser("laws", help="randomized algebraic law suite")
    p.add_argument("--system", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_laws)

    p = commands.add_parser("conjugacy", help="transport observables along a conjugacy")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True, help="point bijection document")
    p.add_argument("--observable", action="append", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=8)
    _add_out(p)
    p.set_defaults(func=_cmd_conjugacy)

    p = commands.add_parser("symbolic", help="eventually periodic shift engine")
    sym = p.add_subparsers(dest="symbolic_command", required=True)

    def _sym_pair(sp):
        sp.add_argument("--x", required=True)
        sp.add_argument("--y", required=True)
        sp.add_argument("--alphabet", help='e.g. "01"')
        _add_out(sp)

    sp = sym.add_parser("distance", help="shift metric d(x, y)")
    _sym_pair(sp)
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("orbit-sup", help="orbit separation D(x, y)")
    _sym_pair(sp)
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("ball", help="dynamical ball membership")
    _sym_pair(sp)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("stable", help="tail equivalence")
    _sym_pair(sp)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("obs-stable", help="observable convergence along the orbit")
    _sym_pair(sp)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("check-inclusion", help="dynamical ball vs observable stability")
    sp.add_argument("--point", required=True)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--alphabet", required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_symbolic)
    sp = sym.add_parser("asymptotic-pair", help="smallest stably equivalent pair")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--forbidden", action="append", default=[])
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--observable", action="append", default=[])
    sp.add_argument("--side", choices=("s", "u"), default="s")
    _add_out(sp)
    sp.set_defaults(func=_cmd_symbolic)

    p = commands.add_parser("circle", help="PL circle homeomorphism pipeline")
    circ = p.add_subparsers(dest="circle_command", required=True)
    sp = circ.add_parser("rotnum", help="exact rotation number")
    sp.add_argument("--map", required=True)
    sp.add_argument("--q-max", type=int, default=64)
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle)
    sp = circ.add_parser("certify", help="wandering interval certificate")
    sp.add_argument("--map", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--q-max", type=int, default=64)
    sp.add_argument("--n-max", type=int, default=100000)
    sp.add_argument("--gap-observable", help="PL observable for a separation gap")
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle)
    sp = circ.add_parser("verify", help="replay a certificate")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--delta", help="larger threshold to verify against")
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle)

    p = commands.add_parser("interval", help="PL interval homeomorphism pipeline")
    inter = p.add_subparsers(dest="interval_command", required=True)
    sp = inter.add_parser("certify", help="wandering interval certificate")
    sp.add_argument("--map", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--n-max", type=int, default=100000)
    _add_out(sp)
    sp.set_defaults(func=_cmd_interval)

    p = commands.add_parser("plot", help="SVG figures from an analysis report")
    p.add_argument("--report", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExpobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
