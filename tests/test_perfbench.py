"""The benchmark's traced job still runs on the package and reports every
per-layer metric that ``BENCHMARK.json`` declares.  Reads ``perfbench/`` and
``BENCHMARK.json``; changes neither."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# computed by perfbench/run.py from several jobs, not reported by one
RUN_LAYERS = {"trace.overhead_share", "verify.untraced_s"}


def test_traced_verify_default_job_reports_every_layer(tmp_path):
    spec = {"trace": True, "run_id": "contract", "trace_file": str(tmp_path / "t.json"),
            "seed": 1}
    # no bytecode is written, so nothing under perfbench/ changes
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/job.py", "verify-default", json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["payload"]["passed"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {layer["name"] for layer in benchmark["per_layer"]}
    assert declared - RUN_LAYERS <= set(result["layers"])
