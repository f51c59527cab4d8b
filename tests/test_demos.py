"""The quick demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demos 01 and 03 integrate full default grids (about 20 s each) and are left out
QUICK_DEMOS = [
    "02_warped_torus_tour",
    "04_compact_groups_exact",
    "05_exact_arithmetic_gbc",
    "06_discrete_energies",
    "07_user_charts_and_cli",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_0(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (name + ".py"))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
