"""Smoke tests for the scripts under scripts/, run in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, check=False,
    )


def test_run_demo_exits_zero():
    proc = run_script("run_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "=== four points on a line" in proc.stdout


def test_make_fixtures_reproduces_committed_fixtures(tmp_path):
    proc = run_script("make_fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
