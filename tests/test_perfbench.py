"""The benchmark's traced job still runs on the package and reports every
per-layer metric that ``BENCHMARK.json`` declares, and its export-verify
check passes.  Reads ``perfbench/`` and ``BENCHMARK.json``; changes neither."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_traced_verify_default_job_reports_every_layer(tmp_path):
    spec = {"trace": True, "run_id": "contract", "trace_file": str(tmp_path / "t.json"),
            "seed": 1}
    result = run_job("verify-default", spec)
    assert result["exit"] == 0
    assert result["payload"]["passed"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {layer["name"] for layer in benchmark["per_layer"]}
    assert declared - RUN_LAYERS <= set(result["layers"])


def test_export_verify_names_the_bumped_entry(tmp_path, monkeypatch):
    """The export-verify job's check: a 400-row export with entry (300, 17)
    bumped fails verify, naming that entry first."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    table = tmp_path / "export.json"
    assert run_job("table", {"table": str(table)})["exit"] == 0
    workloads.bump_entry(table, 300, 17)
    result = run_job("verify-table", {"table": str(table)})
    assert workloads.check_fault_report(result["exit"], result["payload"], 300, 17) is None
