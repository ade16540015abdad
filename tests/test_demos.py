"""Every demo script runs to completion against the package in ``src/``,
and a demo whose own verdict fails exits 1."""
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wderiv
from conftest import src_env
from wderiv import PropertyReport

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def _broken_report(*args):
    return PropertyReport("broken", False, first_violation=(0,))


# one package name per demo whose replacement makes a printed verdict False
BREAKERS = {
    "01_build_triangle.py": ("boundary_value", lambda n, kind: -1),
    "02_five_routes.py": ("ROUTE_ROWS", {"broken": lambda n: (0,) * n}),
    "03_row_properties.py": ("is_log_concave_weighted", _broken_report),
    "04_w_and_derivatives.py": ("w_derivative_fd", lambda n, x: SimpleNamespace(
        value=0.0)),
    "05_bernstein_scan.py": ("is_positive", _broken_report),
    "06_identities.py": ("alternating_sum", lambda row: 0),
}


@pytest.mark.parametrize("name", sorted(BREAKERS))
def test_demo_exits_1_when_its_verdict_fails(name, monkeypatch, capsys):
    attr, broken = BREAKERS[name]
    monkeypatch.setattr(wderiv, attr, broken)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    assert exc.value.code == 1
    assert "False" in capsys.readouterr().out
