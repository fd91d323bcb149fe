"""Byte identity of CLI reports on the committed fixtures.

Each case runs one CLI command in process, writes its report with `--out`,
and compares the SHA-256 of the file's bytes with a pinned digest.  A change
meant to leave the output alone (a speed-up, a refactor) must keep every
digest; a change meant to alter a report updates its digest on purpose.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expobs.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ANALYZE = {
    "line_swap_system": (
        ["line_swap_split_observable", "line_swap_distance_observable"],
        "71e14b60718220e748ebea89ed2f45dd9aaa725f4b19903c663cf90752b9794e",
    ),
    "random_system_0": (
        ["random_observable_0"],
        "0a9de043d29f4311901b6b1505807f5778e94c919f4f96517d019d110c4705c7",
    ),
    "random_system_1": (
        ["random_observable_1"],
        "197044b8b4aef89cece2d86b659b9b28d126261e8e9bbd66e0eac073c02f38de",
    ),
    "random_system_2": (
        ["random_observable_2"],
        "f5eaf171192d9d4401e9c7db14a8b999c85d59827d6230d3a6699fa5076e3219",
    ),
    "rotation_grid_8_system": (
        [],
        "ff77da8c14d1187dd9231ae6ec89aff220083929d794e284def7c5ca6ce52cf1",
    ),
    "torus_cat_system": (
        [],
        "4e50480e247ce43a4ae226d2f41ad5db9e883549d605bdda06b630e30b0ce784",
    ),
}

# dstar on each fixture system/observable pair.
DSTAR = {
    ("line_swap_system", "line_swap_distance_observable"): "0c88809c7a474cd6e77d30381b063690b8cb252544f606ff8554db06daaaf12a",
    ("line_swap_system", "line_swap_split_observable"): "54d96b8ce551c47d55305f42d0eb2ec0dbba2bab1f34bc594ab658098b1f638e",
    ("random_system_0", "random_observable_0"): "897e742335ffec997613a8c2717374079d2cd7661454e59141c55a279ce25c0e",
    ("random_system_1", "random_observable_1"): "9f7f9e1eb301c0a9f51cfb43ba28f023146ffddcf30df06e81ec1f246c3fd63a",
    ("random_system_2", "random_observable_2"): "acb99fa62150019a57e54e68fe85528aed676da1d0d2be40930c62f67d437e75",
}

# quotient at realized orbit distances: every one of torus_cat (it has one)
# and random_system_1 (two), the 1st and 3rd of the others.
QUOTIENT = {
    ("line_swap_system", "1"): "15c1f77ff230daa8df3ae6585015075254b1d0ce09938bf8a310f35a5819b60d",
    ("line_swap_system", "3"): "806fa49715ce0aa014edde68578cb2e3d8e706067f611f87bf742d5ee8796308",
    ("random_system_1", "3"): "b8b15546f6dad37a620d56b19374dbbce2b94ee47b30c2501745630acb8854c7",
    ("random_system_1", "7/2"): "d7977b7dc560ff77b4dce825ec28cca759df9983e6e9cee5dd47968bce13cf19",
    ("rotation_grid_8_system", "1/8"): "e8a7d9c241d3b96c835119177adc3ac6d076925829c4de1b14ab9eb0448527f3",
    ("rotation_grid_8_system", "3/8"): "cef23dfb1151bad9b3d139dbfa17347ef44332ab70538fe82ae39a64e57c3e59",
    ("torus_cat_system", "2/5"): "36c4032c3e6348ed1faa68a9da4635b013350d5103915c7b3dfbdd716b6b7da4",
}

LAWS_DIGEST = "b7f1dd8fa206b2e8f1493abecd53cbbc187476f9e047be1ce3a03db808093bc4"

# laws on random_system_1, 200 trials at seed 7: a second orbit structure,
# with ten sigma-sum notes.
LAWS_RANDOM_1_DIGEST = "5362ef36c0d187b1d6ab5ed0161332b008924960f308301ab2bfe1fbcca3995d"

# Each system conjugated to itself along its own map.
CONJUGACY = {
    "random_system_1": "76a6706faa4dd11d5d1994099dc13736b5f6bde505a59018acc1560290778197",
    "torus_cat_system": "500558c8831f2a79b7d25f8b35cef8a8ea148e748c05968c69af1177503eb886",
}

# check-inclusion with window1_cylinder_observable at epsilon 1/8, bound 8.
INCLUSION = {
    ("alternating_point", "s"): "9c18e6baf55a8eed5cfe041ab6cc49a5da5362f1ea61ddab8a6db6b157cfb47d",
    ("alternating_point", "u"): "79fd700a8e98d1c290afd261cc5df4b5079792fae041f658ad5292f164180fcb",
    ("homoclinic_point", "s"): "812d3b03af164deff7369cd70091a842444f2641d2821af2046d15a8c1fbb6da",
    ("homoclinic_point", "u"): "e6996e725e77e84f49585f9ac60960d289e754bab7b4a90ef625b4bfe1c1d281",
}

# circle certify at delta 1/16, then verify of that certificate.
VERIFIED_OK = "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"
CIRCLE = {
    "m0_circle": "87be5d78d67411989f78ad502d9586c214d000bbb18af8a67a39fb8a696a8d26",
    "plateau_circle": "a6a945e41d4b772acd231d0cde210e5e85b8ddeb350406aacb67bb37f6d77971",
}

# circle certify of the quarter-turn map (q = 4, p = 1) at delta 1/16, then
# verify of that certificate and of three tampered copies, each of which
# replays F^4 - p.  1/27 is a node of F^4 (the base node 1/8 pulled back three
# times) but no node of F, so the widened backward span crosses a node that
# only the fourth power has.
QUARTER_TURN = "7eb46caf09a13028f133bf64cffae9c40491a8cff6cbc2cb2cdfa785f53a84a5"
QUARTER_TURN_TAMPERS = {
    "unchanged": lambda doc: None,
    "p_plus_one": lambda doc: doc.update(p=doc["p"] + 1),
    "forward_slope": lambda doc: doc["tail"]["forward"].update(slope="1/8"),
    "backward_span_across_node": lambda doc: doc["tail"]["backward"].update(span=["0", "1/24"]),
}
QUARTER_TURN_VERIFY = {
    "unchanged": (0, VERIFIED_OK),
    "p_plus_one": (2, "a43ddc16ff7f3d209269e9fb50872cf88d33fb817defa0e11e8c02f613e68673"),
    "forward_slope": (2, "e6361b6e87ffcc183cc0bfd5670285f6dfe66e1cfdec120b781fe35200474498"),
    "backward_span_across_node": (2, "b4903b8646e9a5e3ee5a4b2dcc4a8c43b441a6d5f7a663c87d4d167bb1f98167"),
}

# circle certify at delta 1/16 with a separation gap for GAP_OBSERVABLE, whose
# breakpoint 1/4 lies inside m0's probe.
GAP_OBSERVABLE = {"breakpoints": ["0", "1/4", "1/2", "1"], "values": ["0", "1", "-1/3", "2"]}
GAP = {
    "m0_circle": "464879ab516287fcfe93b0ca8f27101cc9e00fce95492addec1f820a5b229f63",
    "plateau_circle": "bdd124974a5d8b8824402601195a35a79253a12cc504188696dbb67ee4d12c8c",
}

# interval certify at delta 1/16.
INTERVAL = {
    "reflection_interval": "676fab854ad4a4fefad19496b4791c3f43fd60467d9e7b2a6829fa2728366c56",
    "valley_interval": "7e61afcc3645590e2df08046a2e85a6b65a8a6fb6964b10313a0e836d475ea0e",
}


def fixture(name):
    return str(FIXTURES / f"{name}.json")


def digest_of(argv, out_path):
    code = main([*argv, "--out", str(out_path)])
    return code, hashlib.sha256(out_path.read_bytes()).hexdigest()


def analyze_argv(system):
    argv = ["analyze", "--system", fixture(system)]
    for name in ANALYZE[system][0]:
        argv += ["--observable", fixture(name)]
    return argv


def conjugacy_argv(system, tmp_path):
    """conjugacy of a fixture system onto itself along its own map."""
    doc = json.loads((FIXTURES / f"{system}.json").read_text())
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(doc["map"]))
    return ["conjugacy", "--source", fixture(system), "--target", fixture(system),
            "--map", str(map_path)]


@pytest.mark.parametrize("system", sorted(ANALYZE))
def test_analyze_fixture(system, tmp_path):
    argv = analyze_argv(system)
    assert digest_of(argv, tmp_path / "report.json") == (0, ANALYZE[system][1])


@pytest.mark.parametrize("system, observable", sorted(DSTAR))
def test_dstar_fixture(system, observable, tmp_path):
    argv = ["dstar", "--system", fixture(system), "--observable", fixture(observable)]
    assert digest_of(argv, tmp_path / "dstar.json") == (0, DSTAR[system, observable])


@pytest.mark.parametrize("system, threshold", sorted(QUOTIENT))
def test_quotient_fixture(system, threshold, tmp_path):
    argv = ["quotient", "--system", fixture(system), "--threshold", threshold]
    assert digest_of(argv, tmp_path / "quotient.json") == (0, QUOTIENT[system, threshold])


def laws_random_1_argv():
    return ["laws", "--system", fixture("random_system_1"), "--trials", "200", "--seed", "7"]


def test_laws_torus_cat(tmp_path):
    argv = ["laws", "--system", fixture("torus_cat_system"), "--trials", "40", "--seed", "7"]
    assert digest_of(argv, tmp_path / "laws.json") == (0, LAWS_DIGEST)


def test_laws_random_system_1(tmp_path):
    assert digest_of(laws_random_1_argv(), tmp_path / "laws.json") == (0, LAWS_RANDOM_1_DIGEST)


@pytest.mark.parametrize("system", sorted(CONJUGACY))
def test_conjugacy_along_own_map(system, tmp_path):
    argv = conjugacy_argv(system, tmp_path)
    assert digest_of(argv, tmp_path / "conjugacy.json") == (0, CONJUGACY[system])


def quarter_turn_verify_argv(tamper, tmp_path):
    """circle verify of the quarter-turn certificate, edited by `tamper`."""
    cert_path = tmp_path / "quarter_turn_cert.json"
    assert digest_of(["circle", "certify", "--map", fixture("quarter_turn_circle"),
                      "--delta", "1/16"], cert_path) == (0, QUARTER_TURN)
    doc = json.loads(cert_path.read_text())
    QUARTER_TURN_TAMPERS[tamper](doc)
    tampered = tmp_path / f"{tamper}.json"
    tampered.write_text(json.dumps(doc))
    return ["circle", "verify", "--cert", str(tampered)]


def test_digests_hold_under_optimized_interpreter(tmp_path):
    """Every invariant check runs under `python -O`, which strips asserts, so
    a fresh optimized interpreter must write the same bytes."""
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    cases = [
        (analyze_argv("line_swap_system"), (0, ANALYZE["line_swap_system"][1])),
        (conjugacy_argv("random_system_1", tmp_path), (0, CONJUGACY["random_system_1"])),
        (laws_random_1_argv(), (0, LAWS_RANDOM_1_DIGEST)),
        *((quarter_turn_verify_argv(tamper, tmp_path), QUARTER_TURN_VERIFY[tamper])
          for tamper in sorted(QUARTER_TURN_VERIFY)),
    ]
    for argv, (code, expected) in cases:
        out_path = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "expobs.cli", *argv, "--out", str(out_path)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("point, side", sorted(INCLUSION))
def test_check_inclusion(point, side, tmp_path):
    argv = ["symbolic", "check-inclusion", "--point", fixture(point),
            "--observable", fixture("window1_cylinder_observable"),
            "--epsilon", "1/8", "--side", side, "--bound", "8", "--alphabet", "01"]
    assert digest_of(argv, tmp_path / "inclusion.json") == (0, INCLUSION[point, side])


@pytest.mark.parametrize("circle", sorted(CIRCLE))
def test_circle_certify_and_verify(circle, tmp_path):
    cert = tmp_path / "cert.json"
    argv = ["circle", "certify", "--map", fixture(circle), "--delta", "1/16"]
    assert digest_of(argv, cert) == (0, CIRCLE[circle])
    argv = ["circle", "verify", "--cert", str(cert)]
    assert digest_of(argv, tmp_path / "verify.json") == (0, VERIFIED_OK)


@pytest.mark.parametrize("tamper", sorted(QUARTER_TURN_VERIFY))
def test_quarter_turn_certify_and_verify(tamper, tmp_path):
    argv = quarter_turn_verify_argv(tamper, tmp_path)
    assert digest_of(argv, tmp_path / "verify.json") == QUARTER_TURN_VERIFY[tamper]


@pytest.mark.parametrize("interval", sorted(INTERVAL))
def test_interval_certify(interval, tmp_path):
    argv = ["interval", "certify", "--map", fixture(interval), "--delta", "1/16"]
    assert digest_of(argv, tmp_path / "cert.json") == (0, INTERVAL[interval])


@pytest.mark.parametrize("circle", sorted(GAP))
def test_circle_certify_with_gap_observable(circle, tmp_path):
    argv = ["circle", "certify", "--map", fixture(circle), "--delta", "1/16",
            "--gap-observable", json.dumps(GAP_OBSERVABLE)]
    assert digest_of(argv, tmp_path / "cert.json") == (0, GAP[circle])
