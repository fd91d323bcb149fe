"""Byte identity of CLI reports on the committed fixtures.

Each case runs one CLI command in process, writes its report with `--out`,
and compares the SHA-256 of the file's bytes with a pinned digest.  A change
meant to leave the output alone (a speed-up, a refactor) must keep every
digest; a change meant to alter a report updates its digest on purpose.
"""

import hashlib
import json
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

LAWS_DIGEST = "b7f1dd8fa206b2e8f1493abecd53cbbc187476f9e047be1ce3a03db808093bc4"

# Each system conjugated to itself along its own map.
CONJUGACY = {
    "random_system_1": "76a6706faa4dd11d5d1994099dc13736b5f6bde505a59018acc1560290778197",
    "torus_cat_system": "500558c8831f2a79b7d25f8b35cef8a8ea148e748c05968c69af1177503eb886",
}


def fixture(name):
    return str(FIXTURES / f"{name}.json")


def digest_of(argv, out_path):
    code = main([*argv, "--out", str(out_path)])
    return code, hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("system", sorted(ANALYZE))
def test_analyze_fixture(system, tmp_path):
    observables, expected = ANALYZE[system]
    argv = ["analyze", "--system", fixture(system)]
    for name in observables:
        argv += ["--observable", fixture(name)]
    assert digest_of(argv, tmp_path / "report.json") == (0, expected)


def test_laws_torus_cat(tmp_path):
    argv = ["laws", "--system", fixture("torus_cat_system"), "--trials", "40", "--seed", "7"]
    assert digest_of(argv, tmp_path / "laws.json") == (0, LAWS_DIGEST)


@pytest.mark.parametrize("system", sorted(CONJUGACY))
def test_conjugacy_along_own_map(system, tmp_path):
    doc = json.loads((FIXTURES / f"{system}.json").read_text())
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(doc["map"]))
    argv = ["conjugacy", "--source", fixture(system), "--target", fixture(system),
            "--map", str(map_path)]
    assert digest_of(argv, tmp_path / "conjugacy.json") == (0, CONJUGACY[system])
