"""The benchmark's traced job still runs on the package and reports every
per-layer metric that ``BENCHMARK.json`` declares, and its export-verify and
numeric-mix checks pass.  Reads ``perfbench/`` and ``BENCHMARK.json``;
changes neither."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# computed by perfbench/run.py from several jobs, not reported by one
RUN_LAYERS = {"trace.overhead_share", "verify.untraced_s"}
# no bytecode is written, so nothing under perfbench/ changes
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def run_job(mode, spec):
    """The result ``perfbench/job.py`` reports for one job."""
    proc = subprocess.run([sys.executable, "perfbench/job.py", mode, json.dumps(spec)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def load_perfbench(name):
    """``perfbench/<name>.py``, loaded by path as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# what a job did, as against how long it took
OUTCOME = ("exit", "payload", "attempted", "failed", "causes")


def traced_job(mode, spec, tmp_path):
    """The layers of ``mode`` run traced, whose outcome must be the
    untraced job's."""
    traced = run_job(mode, dict(spec, trace=True, run_id="contract",
                                trace_file=str(tmp_path / f"{mode}.json")))
    plain = run_job(mode, spec)
    assert {key: traced.get(key) for key in OUTCOME} == {key: plain.get(key) for key in OUTCOME}
    return traced["layers"]


def traced_verify_default(tmp_path):
    return [traced_job("verify-default", {"seed": 1}, tmp_path)]


def traced_export(tmp_path):
    """table, then verify-table on its 400-row export with (300, 17) bumped,
    as the export-verify workload runs them."""
    workloads = load_perfbench("workloads")
    table = tmp_path / "export.json"
    spec = {"table": str(table)}
    written = traced_job("table", spec, tmp_path)
    workloads.bump_entry(table, 300, 17)
    return [written, traced_job("verify-table", spec, tmp_path)]


def traced_numeric(tmp_path):
    return [traced_job("numeric", {"seed": 1, "job": 0, "batches": 2}, tmp_path)]


@pytest.mark.parametrize("jobs", [traced_verify_default, traced_export, traced_numeric],
                         ids=["verify-default", "export", "numeric"])
def test_traced_job_reports_every_layer(jobs, tmp_path, monkeypatch):
    """Every traced benchmark job ends as its untraced job does, and its
    layers, merged over the jobs of its workload, name every per-layer
    metric that ``BENCHMARK.json`` declares for one job."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layers = set().union(*jobs(tmp_path))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {layer["name"] for layer in benchmark["per_layer"]}
    assert declared - RUN_LAYERS <= layers


def test_export_verify_names_the_bumped_entry(tmp_path, monkeypatch):
    """The export-verify job's check: a 400-row export with entry (300, 17)
    bumped fails verify, naming that entry first."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = load_perfbench("workloads")
    table = tmp_path / "export.json"
    assert run_job("table", {"table": str(table)})["exit"] == 0
    workloads.bump_entry(table, 300, 17)
    result = run_job("verify-table", {"table": str(table)})
    assert workloads.check_fault_report(result["exit"], result["payload"], 300, 17) is None


def test_numeric_mix_fails_only_by_known_defects(monkeypatch):
    """The numeric-mix job's check: every failed call of two batches has a
    cause that ``reference.KNOWN_DEFECTS`` lists, so the run stays correct."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    reference = load_perfbench("reference")
    result = run_job("numeric", {"seed": 1, "job": 0, "batches": 2})
    assert result["attempted"] == 800
    assert result["failed"] == sum(result["causes"].values())
    assert all(tuple(key.split(":", 1)) in reference.KNOWN_DEFECTS
               for key in result["causes"])
