"""Self-tests of the benchmark: inputs, checkers, fault injection, output shape.

    python3 perfbench/selftest.py

They exercise the benchmark's own code, using the package in ``src/`` as
the program under test; they take about ten seconds.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, percentile  # noqa: E402


def run_job(mode: str, **spec) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), mode, json.dumps(spec)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)


class SeededInputs(unittest.TestCase):
    def take(self, seed: int, job: int, batches: int) -> list:
        stream = workloads.numeric_batches(seed, job)
        return [op for _ in range(batches) for op in next(stream)]

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.take(7, 0, 3), self.take(7, 0, 3))
        self.assertNotEqual(self.take(7, 0, 1), self.take(8, 0, 1))
        self.assertNotEqual(self.take(7, 0, 1), self.take(7, 1, 1))
        faults = [workloads.fault_position(workloads.stream(7, "fault")) for _ in range(2)]
        self.assertEqual(faults[0], faults[1])

    def test_inputs_never_repeat_and_follow_the_mix(self):
        ops = self.take(3, 0, 20)
        self.assertEqual(len(set(ops)), len(ops))
        for route, count in workloads.NUMERIC_MIX:
            self.assertEqual(sum(op[0] == route for op in ops), 20 * count)

    def test_inputs_stay_in_documented_domains(self):
        for route, n, x in self.take(5, 0, 20):
            if route == "lambert_w":
                self.assertTrue(1e-6 <= x <= 1e6)
            elif route == "w_derivative":
                self.assertTrue(1 <= n <= workloads.NUMERIC_N_MAX and 1e-6 <= x <= 1e6)
            elif route == "w_derivative_taylor":
                self.assertTrue(1 <= n <= 8 and abs(x) < 1 / math.e)
            elif route == "w_derivative_fd":
                h = max(x, 1.0) * sys.float_info.epsilon ** (1.0 / (n + 2))
                self.assertTrue(1 <= n <= 5 and x - n * h > 0)
            else:
                self.assertTrue(1 <= n <= 10 and abs(x) <= 0.2)

    def test_same_seed_same_counts(self):
        first = run_job("numeric", seed=11, job=0, batches=2)
        second = run_job("numeric", seed=11, job=0, batches=2)
        self.assertEqual(first["attempted"], 800)
        for key in ("attempted", "failed", "causes"):
            self.assertEqual(first[key], second[key])
        self.assertGreater(first["failed"], 0)  # the seed's w_derivative defects

    def test_same_seed_same_run_counts(self):
        batch = sum(count for _, count in workloads.NUMERIC_MIX)
        runs = []
        for _ in range(2):
            proc = run_benchmark("--workload", "numeric-mix", "--seed", "4",
                                 "--seconds", "1", "--trace", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        self.assertEqual(runs[0]["attempted"], sum(workloads.numeric_plan(1)) * batch)
        for key in ("attempted", "failed"):
            self.assertEqual(runs[0][key], runs[1][key])


class Checker(unittest.TestCase):
    ref = reference.Reference(100)

    def test_reference_rows_are_the_signed_triangle(self):
        from wderiv import triangle
        table = triangle.build_table(100)
        for n in range(1, 101):
            sign = 1 if n % 2 else -1
            self.assertEqual(self.ref.rows[n], [sign * b for b in table.rows[n]])

    def test_derivative_perturbations(self):
        truth = float(self.ref.derivative(5, 2.0)[0])
        self.assertIsNone(self.ref.check("w_derivative", 5, 2.0, truth))
        self.assertIsNone(self.ref.check("w_derivative", 5, 2.0, truth * (1 + 5e-11)))
        self.assertEqual(self.ref.check("w_derivative", 5, 2.0, truth * (1 + 2e-10)),
                         "inaccurate")
        self.assertEqual(self.ref.check("w_derivative", 5, 2.0, -truth), "inaccurate")
        self.assertIsNone(self.ref.check("w_derivative_taylor", 5, 0.1,
                                         float(self.ref.derivative(5, 0.1)[0]) * (1 + 5e-9)))
        self.assertEqual(self.ref.check("w_derivative_taylor", 5, 0.1,
                                        float(self.ref.derivative(5, 0.1)[0]) * (1 + 2e-8)),
                         "inaccurate")
        self.assertEqual(self.ref.check("w_derivative", 5, 2.0, math.inf), "inf")
        self.assertEqual(self.ref.check("w_derivative", 5, 2.0, 0.0), "zero")
        self.assertEqual(self.ref.check("w_derivative", 5, 2.0, OverflowError("x")),
                         "overflow_error")

    def test_out_of_range_truth_needs_a_typed_error(self):
        # d^90 W / dx^90 at x = 1e6 is far below the normal binary64 range
        truth, _ = self.ref.derivative(90, 1e6)
        self.assertLess(abs(truth), reference.FLOAT_MIN)
        for outcome in (ValueError("domain"), ArithmeticError("range")):
            self.assertIsNone(self.ref.check("w_derivative", 90, 1e6, outcome))
        self.assertEqual(self.ref.check("w_derivative", 90, 1e6, -0.0), "zero")
        self.assertEqual(self.ref.check("w_derivative", 90, 1e6, 5e-324), "out_of_range_value")
        self.assertEqual(self.ref.check("w_derivative", 90, 1e6, TypeError("bug")),
                         "exception:TypeError")

    def test_w_perturbations(self):
        from wderiv import numeric
        for x in (1e-6, 0.5, 3.0, 7e5):
            w = numeric.lambert_w(x).w
            self.assertIsNone(self.ref.check("lambert_w", 0, x, w))
            far = w * (1 + 1e-14) + 1e-14  # residual ~10x the bound
            self.assertEqual(self.ref.check("lambert_w", 0, x, far), "residual")
            self.assertEqual(self.ref.check("lambert_w", 0, x, -w), "residual")

    def test_pn_perturbations(self):
        truth = float(self.ref.pn(7, -0.15))
        self.assertIsNone(self.ref.check("pn_series_eval", 7, -0.15, truth))
        self.assertEqual(self.ref.check("pn_series_eval", 7, -0.15, -truth), "inaccurate")


class FaultInjection(unittest.TestCase):
    def test_entry_at_enumerates_the_triangle(self):
        expected = [(n, k) for n in range(1, 30) for k in range(n)]
        self.assertEqual([workloads.entry_at(i) for i in range(len(expected))], expected)

    def test_positions_are_valid_entries(self):
        rng = workloads.stream(1, "fault")
        for _ in range(2000):
            n, k = workloads.fault_position(rng)
            self.assertTrue(1 <= n <= workloads.EXPORT_N_MAX and 0 <= k < n)

    def test_bump_changes_exactly_one_entry_and_verify_names_it(self):
        from wderiv import cli
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            path = Path(tmp) / "t.json"
            self.assertEqual(cli.main(["table", "--n-max", "9", "--format", "json",
                                       "--out", str(path)]), 0)
            before = json.loads(path.read_text())["rows"]
            workloads.bump_entry(path, 6, 4)
            after = json.loads(path.read_text())["rows"]
            diffs = [(n + 1, k) for n, row in enumerate(before)
                     for k, b in enumerate(row) if after[n][k] != b]
            self.assertEqual(diffs, [(6, 4)])
            self.assertEqual(int(after[5][4]), int(before[5][4]) + 1)
            payload = run_job("verify-table", seed=1, table=str(path))
        self.assertIsNone(workloads.check_fault_report(payload["exit"], payload["payload"], 6, 4))
        self.assertIsNotNone(
            workloads.check_fault_report(payload["exit"], payload["payload"], 6, 3))

    def test_fault_check_rejects_wrong_outcomes(self):
        named = {"passed": False, "failures": [{"n": 6, "k": 4, "check": "route:recurrence"}]}
        self.assertIsNone(workloads.check_fault_report(1, named, 6, 4))
        self.assertIsNotNone(workloads.check_fault_report(1, named, 7, 4))
        self.assertIsNotNone(workloads.check_fault_report(0, named, 6, 4))
        self.assertIsNotNone(workloads.check_fault_report(2, None, 6, 4))
        self.assertIsNone(workloads.check_clean_verify(0, {"passed": True, "failures": []}))
        self.assertIsNotNone(workloads.check_clean_verify(1, {"passed": False}))


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer("t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(20000))
        (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
        self.assertEqual((p0, p1), (-1, 0))
        self.assertEqual(tracer.self_times(), [(e0 - s0) - (e1 - s1), e1 - s1])

    def test_wrap_and_restore(self):
        import types
        module = types.SimpleNamespace(f=lambda x: x + 1)
        original = module.f
        tracer = Tracer("t")
        tracer.wrap(module, "f", "m.f")
        self.assertEqual(module.f(1), 2)
        self.assertEqual(tracer.summary()["m.f"]["calls"], 1)
        tracer.restore()
        self.assertIs(module.f, original)

    def test_percentile(self):
        self.assertEqual(percentile(list(range(1, 101)), 99), 99.0)
        self.assertEqual(percentile([5.0], 50), 5.0)


class Speed(unittest.TestCase):
    def test_timer_samples_during_a_call_and_restores_the_handler(self):
        import signal
        import speed
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedSampler(period_s=0.005) as sampler:
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                sum(range(1000))
        self.assertGreater(len(sampler.samples), 5)
        self.assertTrue(0.0 < sampler.speed() < 10.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Output(unittest.TestCase):
    def test_last_line_carries_every_declared_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_benchmark("--workload", "numeric-mix", "--seed", "2",
                                 "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertEqual(list(last["metrics"]), [m["name"] for m in declared[kind]])
            for metric in declared[kind]:
                self.assertEqual(last["metrics"][metric["name"]]["unit"], metric["unit"])
            if kind == "end_to_end":
                self.assertTrue(all(v["value"] > 0 for v in last["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
