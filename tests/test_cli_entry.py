"""The command line entry point, run as ``python -m rainbow_rgg.cli`` in a
separate process against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "rainbow_rgg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_refused_input_exits_2_without_traceback():
    done = _run("simulate", "--n", "0")
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == "rainbow-rgg: error: need n >= 1"
    assert "Traceback" not in done.stderr


def test_simulate_prints_events():
    done = _run("simulate", "--n", "5", "--cutoff", "0.5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "i,j,length,colour"
