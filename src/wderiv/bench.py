"""Wall-time and big-integer-size benchmark of the coefficient routes.

For each route and each row n the timed unit is "produce row n": the
recurrence route derives row n from row n - 1, the row its last unit made,
so it holds no table, and the closed-form routes of
``closed_forms.ROUTE_ROWS`` build row n directly; the Carlitz route keeps
no state between calls, so every repetition rebuilds its triangle.
``nanoseconds`` is the best of ``reps`` repetitions; ``max_bits`` is the
largest bit length among the produced entries.
"""
from __future__ import annotations

import time

from . import closed_forms, triangle, verify

__all__ = ["run_bench"]


def run_bench(n_max: int, routes: tuple[str, ...], reps: int) -> str:
    """The CSV ``route,n,nanoseconds,max_bits``, one line per route and row."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    unknown = set(routes) - set(verify.ROUTE_NAMES)
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")

    lines = ["route,n,nanoseconds,max_bits"]
    for route in routes:
        for n in range(1, n_max + 1):
            if route == "recurrence":
                if n == 1:
                    unit = lambda: (1,)
                else:  # row is row n - 1, which the last repetition made
                    unit = lambda n=n, prev=row: triangle.recurrence_step(n - 1, prev)
            else:
                unit = lambda n=n, row_of=closed_forms.ROUTE_ROWS[route]: row_of(n)
            timings = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                row = unit()
                timings.append(time.perf_counter_ns() - t0)
            max_bits = max(entry.bit_length() for entry in row)
            lines.append(f"{route},{n},{min(timings)},{max_bits}")
    return "\n".join(lines) + "\n"
