"""Command-line surface.

Every subcommand reads JSON documents (inline or by path) and runs one
pipeline.  Its handler returns `(document, passed)`: a dict, or the SVG text
for `plot`, and whether every property it checked held.  `main` alone renders
the document, writes it to `--out` or stdout, and picks the exit code:
0 success, 1 invalid input or usage, 2 a mathematical property failed
verification (or an invariant of the engine itself broke).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .algebra import Conjugacy, conjugacy_invariance_report, law_suite
from .circle import (
    DEFAULT_N_MAX,
    DEFAULT_Q_MAX,
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
)
from .errors import (
    AllFixed,
    ExpobsError,
    InvariantViolation,
    NotRigid,
    NoWanderingInterval,
)
from .exact import format_extended, format_rational, parse_rational
from .model import _as_dict, parse_observable, parse_system
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


def _fractions(values) -> tuple:
    return tuple(parse_rational(v) for v in values)


# --- subcommand implementations -------------------------------------------------


def _cmd_analyze(args):
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
    return report, True


def _cmd_dstar(args):
    system = parse_system(_load_document(args.system))
    phi = parse_observable(_load_document(args.observable), system)
    doc = {
        "delta_star": format_extended(delta_star(system, phi)),
        "sigma_star_sq": format_extended(sigma_star(system, phi)),
    }
    return doc, True


def _cmd_quotient(args):
    system = parse_system(_load_document(args.system))
    threshold = parse_rational(args.threshold)
    quotient = indistinguishability_quotient(system, threshold)
    doc = {
        "threshold": format_rational(threshold),
        "blocks": [list(b) for b in quotient.blocks],
    }
    return doc, True


def _cmd_laws(args):
    system = parse_system(_load_document(args.system))
    report = law_suite(system, trials=args.trials, seed=args.seed)
    return law_report_document(report), report.passed


def _cmd_conjugacy(args):
    source = parse_system(_load_document(args.source))
    target = parse_system(_load_document(args.target))
    mapping = _as_dict(_load_document(args.map))
    conj = Conjugacy.build(source, target, mapping)
    observables = [
        parse_observable(_load_document(doc), target) for doc in args.observable
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
    return doc, report.passed


def _sym_points(args):
    alphabet = tuple(args.alphabet) if args.alphabet else None
    return tuple(parse_point(_load_document(text), alphabet) for text in (args.x, args.y))


def _cmd_sym_distance(args):
    x, y = _sym_points(args)
    return {"distance": format_rational(sym_distance(x, y))}, True


def _cmd_sym_orbit_sup(args):
    x, y = _sym_points(args)
    return {"orbit_sup": format_rational(sym_orbit_sup(x, y))}, True


def _cmd_sym_ball(args):
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
    return doc, True


def _cmd_sym_stable(args):
    x, y = _sym_points(args)
    return {"side": args.side, "stable_equivalent": stable_equiv(x, y, args.side)}, True


def _cmd_sym_obs_stable(args):
    x, y = _sym_points(args)
    phi = parse_cylinder_observable(_load_document(args.observable))
    return {"side": args.side, "values_converge": obs_stable_equiv(x, y, phi, args.side)}, True


def _cmd_sym_check_inclusion(args):
    alphabet = tuple(args.alphabet) if args.alphabet else None
    x = parse_point(_load_document(args.point), alphabet)
    phi = parse_cylinder_observable(_load_document(args.observable))
    report = check_ball_inclusion(x, phi, parse_rational(args.epsilon), args.side, args.bound)
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
    return doc, report.passed


def _cmd_sym_asymptotic_pair(args):
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
    return doc, True


def _cmd_circle_rotnum(args):
    mapping = parse_circle_map(_load_document(args.map))
    rho = rotation_number(mapping, args.q_max)
    doc = {
        "rotation_number": None if rho is None else format_rational(rho),
        "q_max": args.q_max,
    }
    return doc, True


def _cmd_circle_certify(args):
    mapping = parse_circle_map(_load_document(args.map))
    try:
        cert = certify(mapping, parse_rational(args.delta), q_max=args.q_max, n_max=args.n_max)
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
            return doc, True
        # certify raises NoWanderingInterval only when there is no arc.
        doc = {
            "outcome": "rigid_rotation",
            "rotation_number": format_rational(case.rho),
            "wandering_intervals": 0,
            "grid_size": case.grid_size,
            "e_star": format_rational(case.e_star),
            "mesh": format_rational(case.mesh),
            "omega_identity": case.omega_identity,
            "quotient_threshold": format_rational(case.quotient_threshold),
            "quotient_blocks": [list(b) for b in case.blocks],
            "single_block": case.single_block,
            "identity_chain_match": case.identity_chain_match,
        }
        return doc, True
    doc = serialize_certificate(cert)
    if args.gap_observable:
        phi = parse_pl_observable(_load_document(args.gap_observable))
        doc["separation_gap"] = format_rational(separation_gap(cert, phi))
    return doc, True


def _cmd_circle_verify(args):
    cert = parse_certificate(_load_document(args.cert))
    delta = parse_rational(args.delta) if args.delta else None
    result = verify_certificate(cert, delta, q_max=args.q_max)
    return {"ok": result.ok, "violations": list(result.violations)}, result.ok


def _cmd_interval_certify(args):
    document = _load_document(args.map)
    try:
        cert = interval_pipeline(document, parse_rational(args.delta), n_max=args.n_max)
    except AllFixed as exc:
        return exc.report, True
    return serialize_certificate(cert), True


def _cmd_plot(args):
    report = _load_document(args.report)
    return plot(report), True


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
    sp.set_defaults(func=_cmd_sym_distance)
    sp = sym.add_parser("orbit-sup", help="orbit separation D(x, y)")
    _sym_pair(sp)
    sp.set_defaults(func=_cmd_sym_orbit_sup)
    sp = sym.add_parser("ball", help="dynamical ball membership")
    _sym_pair(sp)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_sym_ball)
    sp = sym.add_parser("stable", help="tail equivalence")
    _sym_pair(sp)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_sym_stable)
    sp = sym.add_parser("obs-stable", help="observable convergence along the orbit")
    _sym_pair(sp)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.set_defaults(func=_cmd_sym_obs_stable)
    sp = sym.add_parser("check-inclusion", help="dynamical ball vs observable stability")
    sp.add_argument("--point", required=True)
    sp.add_argument("--observable", required=True)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--side", choices=("s", "u"), default="s")
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--alphabet", required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_sym_check_inclusion)
    sp = sym.add_parser("asymptotic-pair", help="smallest stably equivalent pair")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--forbidden", action="append", default=[])
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--observable", action="append", default=[])
    sp.add_argument("--side", choices=("s", "u"), default="s")
    _add_out(sp)
    sp.set_defaults(func=_cmd_sym_asymptotic_pair)

    p = commands.add_parser("circle", help="PL circle homeomorphism pipeline")
    circ = p.add_subparsers(dest="circle_command", required=True)
    sp = circ.add_parser("rotnum", help="exact rotation number")
    sp.add_argument("--map", required=True)
    sp.add_argument("--q-max", type=int, default=DEFAULT_Q_MAX)
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle_rotnum)
    sp = circ.add_parser("certify", help="wandering interval certificate")
    sp.add_argument("--map", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--q-max", type=int, default=DEFAULT_Q_MAX)
    sp.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    sp.add_argument("--gap-observable", help="PL observable for a separation gap")
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle_certify)
    sp = circ.add_parser("verify", help="replay a certificate")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--delta", help="larger threshold to verify against")
    sp.add_argument("--q-max", type=int, default=DEFAULT_Q_MAX)
    _add_out(sp)
    sp.set_defaults(func=_cmd_circle_verify)

    p = commands.add_parser("interval", help="PL interval homeomorphism pipeline")
    inter = p.add_subparsers(dest="interval_command", required=True)
    sp = inter.add_parser("certify", help="wandering interval certificate")
    sp.add_argument("--map", required=True)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    _add_out(sp)
    sp.set_defaults(func=_cmd_interval_certify)

    p = commands.add_parser("plot", help="SVG figures from an analysis report")
    p.add_argument("--report", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_plot)

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on the first call, not at import, so
    importing the module stays cheap.  Parsing never changes it, since every
    call parses into a fresh namespace and `append` actions copy their
    default list before adding to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        doc, passed = args.func(args)
        text = doc if isinstance(doc, str) else render_report(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK if passed else EXIT_VIOLATION
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ExpobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
