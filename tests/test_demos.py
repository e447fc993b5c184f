"""The narrated demos run to completion against the current library API."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize(
    "script, line",
    [
        ("tour.py", "Betti numbers: [1, 0, 1, 1, 0, 1, 0]"),
        ("affine_tour.py", "Betti numbers: [1, 3, 3, 1, 0, 0, 0] (binomials of 3, as for the torus)"),
    ],
)
def test_demo_runs(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
