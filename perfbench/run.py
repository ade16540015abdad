"""Run one workload of the wderiv benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``verify-default``: ``wderiv verify --format json`` with the default horizons.
* ``export-verify``: ``wderiv table --n-max 400`` to a file, one seeded entry
  bumped by +1, then ``wderiv verify --table <file> --n-max 50``.
* ``numeric-mix``: never-repeated point evaluations of W and its derivatives.

Every timed job runs in a fresh interpreter (``perfbench/job.py``), one at
a time, in a closed loop.  The verify workloads start commands until
``--seconds`` are used; ``numeric-mix`` runs a number of operations fixed by
``--seconds``, sized to take about that long, so that a seed always gives
the same counts.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
untraced and traced jobs alternate and it carries the per-layer metrics.
The lines before it report every metric with its sample count.  The exit
code is 0 only if every job ran; a wrong answer shows as ``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads
from spans import median, percentile

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"
TRACE_DIR = ROOT / ".perfbench-trace"
RUN_LIMIT_S = 170  # a job still running then is stopped and the run fails

SETUP_PROBES = 12  # extra fresh interpreters per run that only set up
MIN_JOBS = 2

# per-layer values that are levels, not amounts: merged by max, not summed
LEVEL_METRICS = ("horizon", "max_entry_bits", "iterations_mean", "p50_us", "p99_us")
TIME_METRICS = (".s", "_s", "_us")  # scaled by the job's speed like every time


class JobError(RuntimeError):
    pass


class Run:
    """Launches jobs, keeps the clock and collects what they report."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.start = time.perf_counter()
        self.setup_s: list[float] = []  # scaled by the speed sampled meanwhile
        self.setup_raw: list[float] = []
        self.rss_mb: list[float] = []
        self.rates: list[float] = []  # per untraced job: good operations per timed second
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.causes: dict[str, int] = {}
        self.layers: list[dict[str, float]] = []
        self.top_self: list[list] = []
        self.op_s = {"untraced": [], "traced": []}
        self.jobs = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def job(self, mode: str, traced: bool = False, **spec) -> dict:
        self.jobs += 1
        spec.update(seed=self.seed, trace=traced,
                    run_id=f"{self.workload}-{self.seed}-{self.jobs}")
        if traced:
            spec["trace_file"] = str(self.trace_dir() / f"job{self.jobs}-{mode}.json")
        timeout = max(RUN_LIMIT_S - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(
                [sys.executable, str(JOB), mode, json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise JobError(f"{mode} job still running at {RUN_LIMIT_S} s") from err
        if proc.returncode != 0:
            raise JobError(f"{mode} job exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_s.append(result["setup_s"] * result["setup_speed"])
        self.setup_raw.append(result["setup_s"])
        if traced:
            self.top_self.extend(result["top_self"])
        return result

    def trace_dir(self) -> Path:
        path = TRACE_DIR / f"{self.workload}-seed{self.seed}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def probe_setup(self, mode: str) -> None:
        for _ in range(SETUP_PROBES):
            self.job(mode)

    def keep_going(self, durations: list[float]) -> bool:
        """Start another job only if a typical one still fits the budget."""
        if len(durations) < MIN_JOBS:
            return True
        return self.elapsed() + median(durations) <= self.seconds

    def record(self, problem: str | None) -> int:
        """Count one checked command; 1 if it was right, else 0."""
        self.attempted += 1
        if problem is None:
            return 1
        self.failed += 1
        self.problems.append(problem)
        return 0

    def add_layers(self, *jobs: dict) -> None:
        """Merge the per-layer values of the processes of one traced job."""
        merged: dict[str, float] = {}
        for job in jobs:
            for key, value in job["layers"].items():
                if key.endswith(TIME_METRICS):
                    value *= job["speed"]
                if key.endswith(LEVEL_METRICS):
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        self.layers.append(merged)


# ----------------------------------------------------------------- workloads
#
# Times the run gates on are scaled by the machine speed sampled during each
# job (speed.py); the report lines give them as measured too.

def verify_default(run: Run) -> dict:
    run.probe_setup("probe")
    walls: list[float] = []
    verify_raw: list[float] = []
    traced = False
    while run.keep_going(walls):
        began = run.elapsed()
        result = run.job("verify-default", traced=traced)
        walls.append(run.elapsed() - began)
        good = run.record(workloads.check_clean_verify(result["exit"], result["payload"]))
        op_s = result["op_s"] * result["speed"]
        run.op_s["traced" if traced else "untraced"].append(op_s)
        if traced:
            run.add_layers(result)
        else:
            run.rates.append(good / op_s)
            verify_raw.append(result["op_s"])
            run.rss_mb.append(result["rss_mb"])
        traced = run.trace and not traced
    verify_s = run.op_s["untraced"]
    return command_metrics(verify_s, [("verify_s", "s", verify_s, verify_raw)])


def export_verify(run: Run) -> dict:
    run.probe_setup("probe")
    rng = workloads.stream(run.seed, "fault")
    table_path = run.work / "table.json"
    walls: list[float] = []
    table_s, table_raw, verify_s, verify_raw = [], [], [], []
    traced = False
    while run.keep_going(walls):
        began = run.elapsed()
        n, k = workloads.fault_position(rng)
        export = run.job("table", traced=traced, table=str(table_path))
        if export["exit"] != 0:
            raise JobError(f"wderiv table exited {export['exit']}")
        workloads.bump_entry(table_path, n, k)
        check = run.job("verify-table", traced=traced, table=str(table_path))
        table_path.unlink()
        walls.append(run.elapsed() - began)
        good = run.record(workloads.check_fault_report(check["exit"], check["payload"], n, k))
        export_s = export["op_s"] * export["speed"]
        check_s = check["op_s"] * check["speed"]
        run.op_s["traced" if traced else "untraced"].append(export_s + check_s)
        if traced:
            run.add_layers(export, check)
        else:
            run.rates.append(good / (export_s + check_s))
            table_s.append(export_s)
            table_raw.append(export["op_s"])
            verify_s.append(check_s)
            verify_raw.append(check["op_s"])
            run.rss_mb.append(max(export["rss_mb"], check["rss_mb"]))
        traced = run.trace and not traced
    out = command_metrics(run.op_s["untraced"], [("table_s", "s", table_s, table_raw),
                                                 ("verify_s", "s", verify_s, verify_raw)])
    out["verify_s"] = verify_s
    return out


def command_metrics(op_s: list[float], report: list) -> dict:
    """End-to-end values of a workload whose operation is a CLI command."""
    return {"op_p50_ms": median(op_s) * 1e3, "verify_s": op_s, "report": report}


def numeric_mix(run: Run) -> dict:
    run.probe_setup("probe-numeric")
    latency: list[float] = []
    w_latency: list[float] = []
    raw_rates: list[float] = []
    traced = False
    for job, batches in enumerate(workloads.numeric_plan(run.seconds)):
        result = run.job("numeric", traced=traced, job=job, batches=batches)
        run.attempted += result["attempted"]
        run.failed += result["failed"]
        for key, count in result["causes"].items():
            run.causes[key] = run.causes.get(key, 0) + count
        timed_s = result["timed_s"] * result["speed"]
        run.op_s["traced" if traced else "untraced"].append(timed_s / result["attempted"])
        if traced:
            run.add_layers(result)
        else:
            good = result["attempted"] - result["failed"]
            run.rates.append(good / timed_s)
            raw_rates.append(good / result["timed_s"])
            for route, values in result["latency_ns"].items():
                scaled_ms = [ns * result["speed"] / 1e6 for ns in values]
                latency.extend(scaled_ms)
                if route == "lambert_w":
                    w_latency.extend(ms * 1e3 for ms in scaled_ms)
            run.rss_mb.append(result["rss_mb"])
        traced = run.trace and not traced
    return {
        "op_p50_ms": median(latency),
        "report": [("op_ms", "ms", latency, []), ("w_us", "us", w_latency, []),
                   ("good_ops_per_s", "1/s", run.rates, raw_rates)],
    }


WORKLOADS = {
    "verify-default": verify_default,
    "export-verify": export_verify,
    "numeric-mix": numeric_mix,
}


# ------------------------------------------------------------------ results

def end_to_end(run: Run, out: dict) -> dict[str, float]:
    return {
        "setup_s": median(run.setup_s),
        "op_p50_ms": out["op_p50_ms"],
        "good_ops_per_s": median(run.rates),
        "peak_rss_mb": median(run.rss_mb),
    }


def per_layer(run: Run, out: dict) -> dict[str, float]:
    """Median over traced jobs of each layer value, plus run-level values."""
    names = {key for layer in run.layers for key in layer}
    metrics = {name: median([layer.get(name, 0.0) for layer in run.layers])
               for name in names}
    untraced, traced = median(run.op_s["untraced"]), median(run.op_s["traced"])
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["verify.untraced_s"] = median(out.get("verify_s", []))
    return metrics


def report_lines(run: Run, out: dict) -> list[str]:
    """Every metric the issue names, with units and sample counts."""
    lines = [f"workload {run.workload} seed {run.seed}: {run.jobs} jobs "
             f"in {run.elapsed():.1f} s, trace={int(run.trace)}"]

    def dist(name: str, unit: str, values: list[float], raw: list[float]) -> None:
        if not values:
            return
        line = (f"  {name:<15} p50 {median(values):.6g} {unit}  "
                f"p99 {percentile(values, 99):.6g}  min {min(values):.6g}  "
                f"max {max(values):.6g}  (n={len(values)})")
        if raw:
            line += f"  as measured: p50 {median(raw):.6g}"
        lines.append(line)

    dist("setup_s", "s", run.setup_s, run.setup_raw)
    for name, unit, values, raw in out["report"]:
        dist(name, unit, values, raw)
    if run.workload != "numeric-mix":
        dist("good_ops_per_s", "1/s", run.rates, [])
    dist("peak_rss_mb", "MB", run.rss_mb, [])
    share = run.failed / run.attempted if run.attempted else 0.0
    lines.append(f"  failed_share    {share:.6f}  ({run.failed} of {run.attempted} operations)")
    for key, count in sorted(run.causes.items(), key=lambda item: -item[1]):
        known = tuple(key.split(":", 1)) in reference.KNOWN_DEFECTS
        lines.append(f"    {key:<45} {count:>8}  {'known' if known else 'NEW'}")
    for problem in run.problems[:5]:
        lines.append(f"    check failed: {problem}")
    if run.trace and run.top_self:
        lines.append("  largest self times in one traced job, as measured:")
        for name, seconds in sorted(run.top_self, key=lambda item: -item[1])[:5]:
            lines.append(f"    {name:<40} {seconds:.4f} s")
    return lines


def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wderiv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wderiv sources under {ROOT / 'src'}\n")
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    if args.trace:
        shutil.rmtree(TRACE_DIR / f"{args.workload}-seed{args.seed}", ignore_errors=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        run = Run(args, Path(work))
        try:
            out = WORKLOADS[args.workload](run)
        except JobError as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
    values = per_layer(run, out) if args.trace else end_to_end(run, out)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: no value for declared metrics {missing}\n")
        return 1
    correct = not run.problems and all(
        tuple(key.split(":", 1)) in reference.KNOWN_DEFECTS for key in run.causes)
    for line in report_lines(run, out):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
