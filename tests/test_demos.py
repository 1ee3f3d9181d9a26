"""Smoke test: every demo runs to completion against the package.

Demo 05, the slowest, trains for about 15 s on one CPU core."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["01_spd_utilities.py", "02_closed_form_filter.py",
                                  "03_metrics_and_scenario.py", "04_gradient_check.py",
                                  "05_learned_compensation.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
