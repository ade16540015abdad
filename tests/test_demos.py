"""Every demo script runs to completion against the package in ``src/``."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
