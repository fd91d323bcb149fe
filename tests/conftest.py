import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from expobs.library import line_swap_system, rotation_grid, torus_cat_grid
from expobs.sampling import corpus, random_observable


@pytest.fixture(scope="session")
def l4():
    return line_swap_system()


@pytest.fixture(scope="session")
def cat5():
    return torus_cat_grid()


@pytest.fixture(scope="session")
def r8():
    return rotation_grid(8)


@pytest.fixture(scope="session")
def small_corpus():
    """Forty seeded systems for unit-level sweeps (acceptance uses 200)."""
    return corpus(seed=1103, count=40, max_points=9)


@pytest.fixture(scope="session")
def observables_for():
    def make(system, count, seed):
        rng = random.Random(seed)
        return [random_observable(rng, system) for _ in range(count)]

    return make


@pytest.fixture(scope="session")
def fresh_interpreter():
    """Runs `python -c code *args` in a new interpreter that imports the
    package from this source tree, and returns what it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)

    def run(code, *args) -> str:
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True).stdout

    return run
