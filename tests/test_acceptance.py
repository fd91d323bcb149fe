"""Acceptance gate: thirteen exact, zero-tolerance criteria.

Each test prints one `criterion NN [PASS|FAIL]` line on the real stdout so the
gate is readable straight off a pytest run.  All comparisons are exact; there
are no tolerances anywhere.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from expobs.algebra import Conjugacy, conjugacy_invariance_report, law_suite
from expobs.circle import (
    analyze_rotation_case,
    certify,
    interval_pipeline,
    parse_circle_map,
    parse_pl_observable,
    separation_gap,
    verify_certificate,
)
from expobs.errors import AllFixed
from expobs.exact import INF, GaussianRational
from expobs.library import (
    m0_circle_document,
    reflection_interval_document,
    rigid_rotation_document,
    rotation_grid,
    torus_cat_grid,
    valley_interval_document,
)
from expobs.model import FiniteSystem, Observable, distance_observable, mesh
from expobs.relations import (
    chain_components,
    delta_star,
    e_star,
    gamma_k,
    indistinguishability_quotient,
    omega_map,
    orbit_distance_table,
    periodic_level_report,
    power_system,
)
from expobs.sampling import corpus, random_observable
from expobs.shift import (
    CylinderObservable,
    EPPoint,
    SubshiftSpec,
    check_ball_inclusion,
    find_asymptotic_pair,
)

CORPUS_SEED = 20240818
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def announce(capsys):
    """Print one pass/fail line per criterion on the real terminal."""

    def _announce(num: int, ok: bool, title: str, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        line = f"criterion {num:02d} [{tag}] {title}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def corpus200():
    return corpus(seed=CORPUS_SEED, count=200, max_points=12)


@pytest.fixture(scope="module")
def tables(corpus200):
    return [orbit_distance_table(s) for s in corpus200]


@pytest.fixture(scope="module")
def observables5(corpus200):
    rng = random.Random(CORPUS_SEED + 1)
    return [
        [random_observable(rng, s) for _ in range(5)] for s in corpus200
    ]


def realized_orbit_sups(system, table):
    return sorted(
        {
            table.values[i][j]
            for i in range(system.n)
            for j in range(i + 1, system.n)
        }
    )


def test_criterion_01_common_constant_identity(corpus200, announce):
    started = time.monotonic()
    failures = []
    for idx, system in enumerate(corpus200):
        direct = e_star(system)
        via_observables = min(
            delta_star(system, distance_observable(system, x))
            for x in system.points
        )
        if direct != via_observables:
            failures.append(idx)
    elapsed = time.monotonic() - started
    announce(
        1,
        not failures and elapsed < 10,
        "separation constant equals the distance-observable minimum on 200 systems",
        f"{elapsed:.2f}s",
    )


def test_criterion_02_quotient_characterization(corpus200, tables, observables5, announce):
    failures = []
    for idx, (system, table) in enumerate(zip(corpus200, tables)):
        realized = realized_orbit_sups(system, table)
        for phi in observables5[idx]:
            d_star = delta_star(system, phi)
            profile = [
                (
                    oracles.brute_orbit_sup(system, i, j),
                    any(
                        phi[system.points[a]] != phi[system.points[b]]
                        for a, b in oracles.orbit_pairs(system, i, j)
                    ),
                )
                for i in range(system.n)
                for j in range(i + 1, system.n)
            ]
            for delta in realized:
                fast = (d_star is INF) or d_star > delta
                brute = not any(
                    d <= delta and separated for d, separated in profile
                )
                if fast != brute:
                    failures.append((idx, str(delta)))
    announce(
        2,
        not failures,
        "expansivity membership matches the brute-force level-set checker",
        f"200 systems x 5 observables, all realized thresholds",
    )


def test_criterion_03_subalgebra_laws(corpus200, announce):
    total_trials = 0
    violations = []
    for idx, system in enumerate(corpus200):
        report = law_suite(system, trials=5, seed=CORPUS_SEED + idx)
        total_trials += report.trials
        violations.extend(report.violations)
    announce(
        3,
        total_trials >= 1000 and not violations,
        "sum/product/scale/conjugate laws hold on 1000 sampled triples",
        f"{total_trials} triples, {len(violations)} violations",
    )


def test_criterion_04_inverse_and_power_laws(corpus200, tables, observables5, announce):
    failures = []
    gamma_cache = {}
    for idx, (system, table) in enumerate(zip(corpus200, tables)):
        inverse = power_system(system, -1)
        powers = {k: power_system(system, k) for k in (2, 3, 5)}
        realized = realized_orbit_sups(system, table)
        for phi in observables5[idx]:
            base = delta_star(system, phi)
            if delta_star(inverse, phi) != base:
                failures.append((idx, "inverse"))
            for k in (2, 3, 5):
                powered = delta_star(powers[k], phi)
                if base is INF:
                    if powered is not INF:
                        failures.append((idx, f"power-{k} INF drift"))
                elif powered is not INF and powered > base:
                    failures.append((idx, f"power-{k} above base"))
                below = [e for e in realized if base is INF or e < base]
                # gamma_k grows with its argument, so the largest realized
                # value below delta* is the binding case; every 29th system
                # is swept over all realized values as a monotonicity guard.
                check_at = below[-1:] if idx % 29 else below
                for e in check_at:
                    key = (idx, k, e)
                    if key not in gamma_cache:
                        gamma_cache[key] = gamma_k(system, k, e)
                    if not (powered is INF or powered > gamma_cache[key]):
                        failures.append((idx, f"power-{k} gamma floor at {e}"))
    announce(
        4,
        not failures,
        "inverse invariance and power-law bounds with gamma floors (k in 2,3,5)",
        f"{len(failures)} failures",
    )


def test_criterion_05_equicontinuous_collapse(announce):
    failures = []
    for n in (5, 8, 12):
        grid = rotation_grid(n)
        quotient = indistinguishability_quotient(grid, Fraction(1, n))
        if len(quotient.blocks) != 1:
            failures.append(n)
            continue
        # Only constants are expansive at this resolution: any separating
        # observable must have delta* <= 1/n.
        probe = distance_observable(grid, grid.points[0])
        d = delta_star(grid, probe)
        if not (d is not INF and d <= Fraction(1, n)):
            failures.append(n)
    announce(
        5,
        not failures,
        "rotation grids collapse to one block at threshold 1/n (n = 5, 8, 12)",
    )


def test_criterion_06_discrete_rigidity(corpus200, announce):
    rng = random.Random(CORPUS_SEED + 2)
    isometric = [oracles.random_isometric_system(rng, max_points=12) for _ in range(150)]
    counterexamples = []
    for idx, system in enumerate(isometric):
        table = orbit_distance_table(system)
        if table.values != system.metric:
            counterexamples.append((idx, "not isometric"))
    # The implication itself is exhaustively checked on both corpora: any
    # system with modulus below the separation constant and a chain-connected
    # mesh graph would have to be a single point.
    for idx, system in enumerate(isometric + corpus200):
        h = mesh(system)
        connected = len(chain_components(system, h)) == 1
        if connected and omega_map(system, h) < e_star(system):
            if system.n != 1:
                counterexamples.append((idx, "rigidity violated"))
    announce(
        6,
        not counterexamples,
        "no chain-connected system has modulus below its separation constant",
        "150 isometric + 200 corpus systems",
    )


def test_criterion_07_expansive_example(announce):
    started = time.monotonic()
    cat5 = torus_cat_grid()
    fast = e_star(cat5)
    brute = oracles.brute_e_star(cat5)
    grid_mesh = mesh(cat5)
    elapsed = time.monotonic() - started
    ok = (
        fast == Fraction(2, 5)
        and brute == Fraction(2, 5)
        and grid_mesh == Fraction(1, 5)
        and fast > grid_mesh
        and elapsed < 1
    )
    announce(
        7,
        ok,
        "torus grid map separates at 2/5, strictly above its mesh 1/5",
        f"{elapsed:.3f}s, 300 pairs",
    )


def test_criterion_08_conjugacy_invariance(corpus200, announce):
    failures = []
    rng = random.Random(CORPUS_SEED + 3)
    for idx in range(0, 200, 7):
        system = corpus200[idx]
        names = list(system.points)
        rng.shuffle(names)
        relabel = dict(zip(system.points, (f"r{n}" for n in names)))
        target = FiniteSystem.build(
            tuple(relabel[p] for p in system.points),
            [list(row) for row in system.metric],
            {relabel[p]: relabel[system.apply(p)] for p in system.points},
        )
        conj = Conjugacy.build(system, target, relabel)
        report = conjugacy_invariance_report(conj, seed=idx, samples=4)
        if not (report.isometry and report.passed):
            failures.append((idx, "relabel"))
        if any(src != tgt for tgt, src in report.entries):
            failures.append((idx, "spectrum moved"))

    from expobs.library import line_swap_system

    l4 = line_swap_system()
    doubled = FiniteSystem.build(
        l4.points,
        [[2 * v for v in row] for row in l4.metric],
        {p: l4.apply(p) for p in l4.points},
    )
    conj = Conjugacy.build(doubled, l4, {p: p for p in l4.points})
    from expobs.algebra import transport

    for phi in (random_observable(rng, l4) for _ in range(12)):
        d_base = delta_star(l4, phi)
        d_doubled = delta_star(doubled, transport(conj, phi))
        if d_base is INF:
            if d_doubled is not INF:
                failures.append(("doubling", "INF"))
        elif d_doubled != 2 * d_base:
            failures.append(("doubling", str(d_base)))
    announce(
        8,
        not failures,
        "relabeled conjugates keep the spectrum; metric doubling doubles it",
        f"{len(failures)} failures",
    )


def test_criterion_09_periodic_level_sets(corpus200, observables5, announce):
    failures = []
    reported_counts = 0
    for idx, system in enumerate(corpus200):
        for phi in observables5[idx]:
            for k in range(1, 7):
                report = periodic_level_report(system, phi, k)
                if not report.holds:
                    failures.append((idx, k))
                if len(report.distinct_values) > system.n:
                    failures.append((idx, k, "count"))
                reported_counts += 1
    announce(
        9,
        not failures and reported_counts == 200 * 5 * 6,
        "periodic points below the power threshold share observable values (k <= 6)",
        f"{reported_counts} level reports",
    )


def sampled_cylinder_observables(count: int, seed: int):
    rng = random.Random(seed)
    palette = [
        GaussianRational.of(0),
        GaussianRational.of(1),
        GaussianRational.of(0, 1),
        GaussianRational.of(Fraction(1, 2)),
    ]
    out = []
    for _ in range(count):
        window = rng.randrange(3)
        width = 2 * window + 1
        table = {}
        for word_index in range(2 ** width):
            word = format(word_index, f"0{width}b")
            table[word] = palette[rng.randrange(len(palette))]
        out.append(CylinderObservable.make(window, "01", table))
    return out


def test_criterion_10_symbolic_stable_sets(announce):
    started = time.monotonic()
    failures = []
    enumerated = 0
    for left in ("0", "01"):
        base = EPPoint.make(left, alphabet="01")
        for window in (0, 1, 2):
            phi = CylinderObservable.injective(window, "01")
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                report = check_ball_inclusion(base, phi, eps, "s", 8)
                enumerated = report.points_enumerated
                if not report.passed:
                    failures.append((left, window, str(eps)))

    spec = SubshiftSpec.make("01")
    pair = find_asymptotic_pair(
        spec, 8, sampled_cylinder_observables(20, CORPUS_SEED + 4)
    )
    expected_x = EPPoint.make("0")
    expected_y = EPPoint.make("0", "1", "0")
    if pair.x != expected_x or pair.y != expected_y:
        failures.append(("pair", str(pair.x), str(pair.y)))
    if pair.verified_observables != 20:
        failures.append(("verified", pair.verified_observables))
    elapsed = time.monotonic() - started
    announce(
        10,
        not failures and elapsed < 30 and enumerated > 1000,
        "dynamical balls sit inside observable stable sets; smallest pair found",
        f"{elapsed:.1f}s, {enumerated} points per sweep",
    )


def test_criterion_11_circle_certificates(announce):
    started = time.monotonic()
    failures = []
    m0 = parse_circle_map(m0_circle_document())
    cert = certify(m0, Fraction(1, 16))
    verification = verify_certificate(cert)
    if not verification.ok:
        failures.append(("verify", verification.violations))
    identity_obs = parse_pl_observable(
        {"breakpoints": ["0", "1"], "values": ["0", "1"]}
    )
    gap = separation_gap(cert, identity_obs)
    if not gap > 0:
        failures.append(("gap", str(gap)))

    case = analyze_rotation_case(parse_circle_map(rigid_rotation_document("3/8")))
    grid_criterion_5 = (
        case.grid_size == 8
        and case.single_block
        and case.quotient_threshold == Fraction(1, 8)
        and case.e_star == Fraction(1, 8)
        and case.omega_identity
    )
    if not grid_criterion_5:
        failures.append(("rotation-case", case))
    elapsed = time.monotonic() - started
    announce(
        11,
        not failures and elapsed < 5,
        "wandering-interval certificate verifies; rigid 3/8 reproduces the grid collapse",
        f"{elapsed:.2f}s, gap {gap}",
    )


def test_criterion_12_interval_pipeline(announce):
    failures = []
    cert = interval_pipeline(valley_interval_document(), Fraction(1, 16))
    if not verify_certificate(cert).ok:
        failures.append("valley")
    identity_doc = {"breakpoints": ["0", "1"], "values": ["0", "1"]}
    try:
        interval_pipeline(identity_doc, Fraction(1, 8))
        failures.append("identity-not-flagged")
    except AllFixed as exc:
        if exc.report["power"] != 1:
            failures.append("identity-power")
    try:
        interval_pipeline(reflection_interval_document(), Fraction(1, 8))
        failures.append("reflection-not-flagged")
    except AllFixed as exc:
        if exc.report["power"] != 2:
            failures.append("reflection-power")
    announce(
        12,
        not failures,
        "interval pipeline certifies the valley map and flags all-fixed maps",
        f"{failures or 'valley cert + identity + reflection-square'}",
    )


def test_criterion_13_hashseed_determinism(announce):
    """Fresh interpreters with different hash seeds print the same bytes."""
    fixtures = ROOT / "fixtures"
    commands = {
        "analyze": [
            "analyze",
            "--system", str(fixtures / "random_system_0.json"),
            "--observable", str(fixtures / "random_observable_0.json"),
        ],
        "laws": [
            "laws",
            "--system", str(fixtures / "torus_cat_system.json"),
            "--trials", "40", "--seed", "7",
        ],
        "check-inclusion": [
            "symbolic", "check-inclusion",
            "--point", str(fixtures / "homoclinic_point.json"),
            "--observable", str(fixtures / "window1_cylinder_observable.json"),
            "--epsilon", "1/2", "--bound", "7", "--alphabet", "01",
        ],
    }
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    mismatches = []
    for name, argv in commands.items():
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=src + os.pathsep + path if path else src,
            )
            proc = subprocess.run(
                [sys.executable, "-m", "expobs.cli", *argv],
                env=env, capture_output=True, check=False,
            )
            if proc.returncode != 0:
                mismatches.append((name, hash_seed, proc.returncode))
            outputs.add(proc.stdout)
        if len(outputs) != 1:
            mismatches.append((name, len(outputs)))

    announce(
        13,
        not mismatches,
        "fresh interpreters under PYTHONHASHSEED 0, 1, 2 print identical bytes",
        f"{mismatches or 'analyze + laws + check-inclusion'}",
    )
