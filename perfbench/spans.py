"""Spans around calls into the package's public functions.

The tracer replaces module attributes with wrappers, so calls made through
the module (``verify.run_verification`` from the CLI, ``lambert_w`` from
inside ``w_derivative``) are recorded too.  Each span is kept in memory as
(name, start ns, end ns, parent index) and written out when the job ends;
the run id names the job.
"""
from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, module: object, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of module.attr.

        ``after(result, args, kwargs)`` runs once the span has closed; keep
        it cheap, because the enclosing span still counts it.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        self.replace(module, attr, traced)

    def replace(self, module: object, attr: str, value: object) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, inclusive p50/p99 microseconds."""
        own = self.self_times()
        by_name: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for (name, start, end, _), self_ns in zip(self.spans, own):
            entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_ns / 1e9
            entry["total_s"] += (end - start) / 1e9
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            by_name[name]["p50_us"] = percentile(values, 50) / 1e3
            by_name[name]["p99_us"] = percentile(values, 99) / 1e3
        return by_name

    def write(self, path: Path) -> None:
        """Write the spans as columns, with span names as an index table."""
        names: dict[str, int] = {}
        columns = {"name": [], "start_ns": [], "end_ns": [], "parent": []}
        for name, start, end, parent in self.spans:
            columns["name"].append(names.setdefault(name, len(names)))
            columns["start_ns"].append(start)
            columns["end_ns"].append(end)
            columns["parent"].append(parent)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "names": list(names), **columns}, fh)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
