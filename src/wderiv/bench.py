"""Wall-time and big-integer-size benchmark of the coefficient routes.

For each route and each row n the timed unit is "produce row n": the
recurrence route derives row n from the previous row (the previous rows are
prepared outside the timer), and the closed-form routes of
``closed_forms.ROUTE_ROWS`` build row n directly; the Carlitz route keeps
no state between calls, so every repetition rebuilds its triangle.
``nanoseconds`` is the best of ``reps`` repetitions; ``max_bits`` is the
largest bit length among the produced entries.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from . import closed_forms, triangle

__all__ = ["BenchRecord", "run_bench", "bench_to_csv"]


@dataclass(frozen=True)
class BenchRecord:
    route: str
    n: int
    nanoseconds: int
    max_bits: int


def run_bench(
    n_max: int, routes: tuple[str, ...], reps: int
) -> list[BenchRecord]:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    unknown = set(routes) - set(closed_forms.ROUTE_ROWS) - {"recurrence"}
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")

    table = triangle.build_table(n_max)  # previous rows for the recurrence route
    records: list[BenchRecord] = []
    for route in routes:
        for n in range(1, n_max + 1):
            if route == "recurrence":
                if n == 1:
                    unit = lambda: (1,)
                else:
                    prev = table.rows[n - 1]
                    unit = lambda n=n, prev=prev: triangle.recurrence_step(n - 1, prev)
            else:
                unit = lambda n=n, row_of=closed_forms.ROUTE_ROWS[route]: row_of(n)
            timings = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                row = unit()
                timings.append(time.perf_counter_ns() - t0)
            records.append(BenchRecord(
                route=route, n=n, nanoseconds=min(timings),
                max_bits=max(entry.bit_length() for entry in row)))
    return records


def bench_to_csv(records: list[BenchRecord]) -> str:
    lines = ["route,n,nanoseconds,max_bits"]
    lines.extend(
        f"{r.route},{r.n},{r.nanoseconds},{r.max_bits}" for r in records
    )
    return "\n".join(lines) + "\n"
