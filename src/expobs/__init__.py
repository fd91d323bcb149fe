"""Exact expansivity analysis for finite, symbolic and piecewise-linear dynamics.

Everything is computed in rational (or Gaussian-rational) arithmetic: orbit
separation tables, optimal expansivity constants, indistinguishability
quotients, algebraic law suites, eventually-periodic shift points, and
replayable certificates for circle and interval homeomorphisms.
"""

__version__ = "0.1.0"

from .errors import ExpobsError
from .exact import (
    INF,
    GaussianRational,
    format_extended,
    format_rational,
    parse_extended,
    parse_rational,
)
from .model import (
    FiniteSystem,
    Observable,
    distance_observable,
    mesh,
    parse_observable,
    parse_system,
    serialize_observable,
    serialize_system,
)
from .relations import (
    chain_components,
    delta_star,
    e_star,
    fixed_points,
    gamma_k,
    indistinguishability_quotient,
    omega_map,
    omega_map_table,
    omega_obs,
    omega_obs_table,
    orbit_distance_table,
    periodic_level_report,
    pointwise_constants,
    power_system,
    sigma_star,
)
from .algebra import (
    Conjugacy,
    conjugacy_invariance_report,
    law_suite,
    limit_stability_check,
    obs_add,
    obs_conjugate,
    obs_mul,
    obs_scale,
    transport,
)
from .shift import (
    CylinderObservable,
    EPPoint,
    SubshiftSpec,
    check_ball_inclusion,
    enumerate_points,
    find_asymptotic_pair,
    in_dynamical_ball,
    obs_stable_equiv,
    stable_equiv,
    sym_distance,
    sym_orbit_sup,
)
from .circle import (
    Certificate,
    PLCircleMap,
    PLObservable,
    analyze_rotation_case,
    certify,
    interval_pipeline,
    parse_certificate,
    parse_circle_map,
    parse_interval_map,
    periodic_points,
    rotation_number,
    separation_gap,
    serialize_certificate,
    verify_certificate,
    wandering_intervals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
