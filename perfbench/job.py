"""One timed job in a fresh interpreter: set up, do the work, report JSON.

    python3 perfbench/job.py <mode> '<json spec>'

The mode is ``verify-default``, ``table``, ``verify-table``, ``numeric``,
``probe`` or ``probe-numeric``; the spec holds its inputs.  The package is
imported from ``src/`` of the checkout this file sits in, before anything
else that could preload its dependencies, so the import time is what a
user pays.  The machine's speed is sampled during set-up and during the
timed work (speed.py).  The last stdout line is the job's result as JSON.
"""
import os
import sys
import time

import speed  # imports only _signal and time, nothing the package needs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
MODE = sys.argv[1]

SETUP_SPEED = speed.SpeedSampler(period_s=0.005)
SETUP_START = time.perf_counter()
with SETUP_SPEED:
    if MODE in ("numeric", "probe-numeric"):
        import wderiv.numeric as _entry
    else:
        import wderiv.cli as _entry
IMPORT_S = time.perf_counter() - SETUP_START
if not os.path.abspath(_entry.__file__).startswith(SRC + os.sep):
    sys.exit(f"wderiv was imported from {_entry.__file__}, not from {SRC}")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from wderiv import cli, numeric, properties, tableio, triangle, verify  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

PROPERTY_CHECKS = ("is_positive", "is_unimodal", "is_log_concave",
                   "is_log_concave_weighted", "check_ratio_bound", "check_lemma1")
NUMERIC_ROUTES = ("lambert_w", "w_derivative", "w_derivative_taylor",
                  "w_derivative_fd", "pn_series_eval")
VERIFY_STAGES = ("verify_properties", "verify_identities", "verify_carlitz_sums")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Instrumentation:
    """The tracer plus the counts recorded at the same boundaries."""

    def __init__(self, run_id: str) -> None:
        self.tracer = Tracer(run_id)
        self.counts: dict[str, float] = {}
        self.tables: list = []
        self.iterations: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        t = self.tracer
        t.wrap(triangle, "build_table", "triangle.build_table",
               after=lambda r, a, k: self.tables.append(r))
        t.wrap(tableio, "table_to_json", "tableio.table_to_json",
               after=lambda r, a, k: self.add("tableio.bytes", len(r)))
        t.wrap(tableio, "load_table", "tableio.load_table",
               after=lambda r, a, k: self.add("tableio.bytes", os.path.getsize(a[0])))
        for name in PROPERTY_CHECKS:
            t.wrap(properties, name, f"properties.{name}")
        for name in VERIFY_STAGES:
            t.wrap(verify, name, f"verify.{name}")
        t.wrap(verify, "run_verification", "verify.run_verification",
               after=self._note_verification)
        t.replace(verify, "verify_routes", self._routes_one_by_one(verify.verify_routes))
        for name in NUMERIC_ROUTES[1:]:
            t.wrap(numeric, name, f"numeric.{name}")
        t.wrap(numeric, "lambert_w", "numeric.lambert_w",
               after=lambda r, a, k: self.iterations.append(r.iterations))

    def _routes_one_by_one(self, original):
        """verify_routes, called once per route so each route gets a span."""

        def routes_traced(table, routes=verify.ROUTE_NAMES, n_max=None):
            horizon = min(table.n_max, verify.DEFAULT_ROUTE_N_MAX if n_max is None else n_max)
            failures = []
            for route in routes:
                with self.tracer.span(f"verify.routes.{route}"):
                    failures += original(table, (route,), n_max)
                rows = table.n_max if route == "recurrence" else horizon
                self.add("verify.routes.entries", rows * (rows + 1) // 2)
            return failures

        return routes_traced

    def _note_verification(self, failures, args, kwargs) -> None:
        table = args[0]
        route = kwargs.get("route_n_max")
        prop = kwargs.get("property_n_max")
        ident = kwargs.get("identity_n_max")
        self.counts["verify.route_horizon"] = min(
            table.n_max, verify.DEFAULT_ROUTE_N_MAX if route is None else route)
        self.counts["verify.property_horizon"] = min(
            table.n_max, verify.DEFAULT_PROPERTY_N_MAX if prop is None else prop)
        self.counts["verify.identity_horizon"] = min(
            table.n_max, verify.DEFAULT_ROUTE_N_MAX if ident is None else ident)
        self.add("verify.failures", len(failures))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this job, by their BENCHMARK.json names."""
        spans = self.tracer.summary()

        def get(name, field):
            return spans.get(name, {}).get(field, 0.0)

        out = {
            "triangle.build_table.s": get("triangle.build_table", "self_s"),
            "triangle.build_table.calls": get("triangle.build_table", "calls"),
            "triangle.max_entry_bits": max(
                (b.bit_length() for t in self.tables for b in t.rows[t.n_max]), default=0),
            "tableio.table_to_json.s": get("tableio.table_to_json", "self_s"),
            "tableio.load_table.s": get("tableio.load_table", "self_s"),
            "tableio.bytes": self.counts.get("tableio.bytes", 0),
        }
        stage_sum = 0.0
        for route in verify.ROUTE_NAMES:
            value = get(f"verify.routes.{route}", "total_s")
            out[f"verify.routes.{route}.s"] = value
            stage_sum += value
        out["verify.routes.entries"] = self.counts.get("verify.routes.entries", 0)
        for name in PROPERTY_CHECKS:
            out[f"properties.{name}.s"] = get(f"properties.{name}", "self_s")
            out[f"properties.{name}.calls"] = get(f"properties.{name}", "calls")
        for name in VERIFY_STAGES:
            value = get(f"verify.{name}", "total_s")
            out[f"verify.{name}.s"] = value
            stage_sum += value
        for key in ("route_horizon", "property_horizon", "identity_horizon", "failures"):
            out[f"verify.{key}"] = self.counts.get(f"verify.{key}", 0)
        out["verify.stage_sum_s"] = stage_sum
        out["cli.verify.self_s"] = get("cli.verify", "self_s")
        for name in NUMERIC_ROUTES:
            span = f"numeric.{name}"
            out[f"{span}.calls"] = get(span, "calls")
            out[f"{span}.s"] = get(span, "self_s")
            out[f"{span}.p50_us"] = get(span, "p50_us")
            out[f"{span}.p99_us"] = get(span, "p99_us")
            out[f"{span}.failed"] = self.counts.get(f"{span}.failed", 0)
        its = self.iterations
        out["numeric.lambert_w.iterations_mean"] = sum(its) / len(its) if its else 0.0
        return out

    def top_self_times(self, count: int = 5) -> list[tuple[str, float]]:
        spans = self.tracer.summary()
        ranked = sorted(spans.items(), key=lambda item: -item[1]["self_s"])
        return [(name, entry["self_s"]) for name, entry in ranked[:count]]


def run_cli(argv: list[str], inst: Instrumentation | None, span: str) -> dict:
    """cli.main with stdout captured and the machine's speed sampled meanwhile."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        if inst is None:
            code = cli.main(argv)
        else:
            with inst.tracer.span(span):
                code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return {"exit": code, "op_s": elapsed, "speed": sampler.speed(),
            "rss_mb": peak_rss_mb(), "stdout": buf.getvalue()}


def parse_payload(text: str) -> dict | None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def job_verify(spec: dict, inst: Instrumentation | None) -> dict:
    if MODE == "verify-default":
        argv = ["verify", "--format", "json"]
    else:
        argv = ["verify", "--table", spec["table"],
                "--n-max", str(workloads.EXPORT_VERIFY_N_MAX), "--format", "json"]
    result = run_cli(argv, inst, "cli.verify")
    result["payload"] = parse_payload(result.pop("stdout"))
    return result


def job_table(spec: dict, inst: Instrumentation | None) -> dict:
    argv = ["table", "--n-max", str(workloads.EXPORT_N_MAX),
            "--format", "json", "--out", spec["table"]]
    result = run_cli(argv, inst, "cli.table")
    del result["stdout"]
    return result


def job_numeric(spec: dict, inst: Instrumentation | None, table) -> dict:
    """Closed-loop point evaluations, checked batch by batch.

    Only the calls are timed.  Each batch is checked against the reference
    right after it runs; the job runs ``batches`` batches.  The machine's
    speed is sampled right before each timed batch.
    """
    calls = {
        "lambert_w": lambda n, x: numeric.lambert_w(x).w,
        "w_derivative": lambda n, x: numeric.w_derivative(n, x, table).value,
        "w_derivative_taylor": lambda n, x: numeric.w_derivative_taylor(n, x).value,
        "w_derivative_fd": lambda n, x: numeric.w_derivative_fd(n, x).value,
        "pn_series_eval": lambda n, w: numeric.pn_series_eval(n, w),
    }
    latency = {route: [] for route in calls}
    causes: dict[str, int] = {}
    attempted = failed = 0
    timed_ns = 0
    sampler = speed.SpeedSampler()
    rss = None
    ref = None
    batches = workloads.numeric_batches(spec["seed"], spec["job"])
    for _ in range(spec["batches"]):
        batch = next(batches)
        outcomes = []
        took = []
        sampler.sample()
        batch_start = time.perf_counter_ns()
        for route, n, x in batch:
            call = calls[route]
            t0 = time.perf_counter_ns()
            try:
                out = call(n, x)
            except Exception as err:  # every outcome is checked, none escapes
                out = err
            took.append(time.perf_counter_ns() - t0)
            outcomes.append(out)
        timed_ns += time.perf_counter_ns() - batch_start
        if rss is None:
            rss = peak_rss_mb()  # before any reference data exists
            ref = reference.Reference(workloads.NUMERIC_N_MAX)
        for (route, n, x), out, ns in zip(batch, outcomes, took):
            latency[route].append(ns)
            cause = ref.check(route, n, x, out)
            attempted += 1
            if cause is not None:
                failed += 1
                key = f"{route}:{cause}"
                causes[key] = causes.get(key, 0) + 1
                if inst is not None:
                    inst.add(f"numeric.{route}.failed", 1)
    return {"timed_s": timed_ns / 1e9, "speed": sampler.speed(), "rss_mb": rss,
            "attempted": attempted, "failed": failed, "causes": causes,
            "latency_ns": latency}


def main() -> None:
    spec = json.loads(sys.argv[2])
    table = None
    result = {"setup_s": IMPORT_S}
    if MODE in ("numeric", "probe-numeric"):
        start = time.perf_counter()
        with SETUP_SPEED:
            table = triangle.build_table(workloads.NUMERIC_N_MAX)
        result["setup_s"] += time.perf_counter() - start
    result["setup_speed"] = SETUP_SPEED.speed()
    if MODE.startswith("probe"):
        print(json.dumps(result))
        return
    inst = None
    if spec.get("trace"):
        inst = Instrumentation(spec["run_id"])
        inst.install()
    if MODE in ("verify-default", "verify-table"):
        result.update(job_verify(spec, inst))
    elif MODE == "table":
        result.update(job_table(spec, inst))
    elif MODE == "numeric":
        result.update(job_numeric(spec, inst, table))
    else:
        sys.exit(f"unknown job mode {MODE}")
    if inst is not None:
        inst.tracer.restore()
        result["layers"] = inst.layer_metrics()
        result["top_self"] = inst.top_self_times()
        inst.tracer.write(Path(spec["trace_file"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
