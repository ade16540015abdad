"""Inputs generated from the seed, and the checks on command outcomes.

Everything random comes from ``random.Random`` streams derived from the
seed, so one seed always yields the same inputs.
"""
from __future__ import annotations

import math
import random
import sys
from pathlib import Path

EPS = sys.float_info.epsilon

EXPORT_N_MAX = 400  # rows written by `wderiv table` in export-verify
EXPORT_VERIFY_N_MAX = 50  # `wderiv verify --n-max` on the exported file
NUMERIC_N_MAX = 200  # rows of the table the numeric routes evaluate from

# One numeric-mix batch: how many calls of each route, in shuffled order.
# The oracles get small shares: a taylor call costs ~10x a closed-form call
# and a pn_series_eval call ~30x, so each stays near a tenth of the time.
NUMERIC_MIX = (
    ("lambert_w", 160),
    ("w_derivative", 229),
    ("w_derivative_taylor", 4),
    ("w_derivative_fd", 6),
    ("pn_series_eval", 1),
)
NUMERIC_BATCHES_PER_S = 11  # batches a second of the run holds, checks included
NUMERIC_JOB_S = 7.5  # about how much of the run one numeric job takes


def stream(seed: int, *labels: object) -> random.Random:
    """An independent random stream for one use of the seed."""
    return random.Random(":".join(map(str, (seed,) + labels)))


# ---------------------------------------------------------------- export-verify

def entry_at(index: int) -> tuple[int, int]:
    """The table entry (n, k) at a row-major index: 0 -> (1, 0), 1 -> (2, 0), ..."""
    n = 1
    while index >= n:
        index -= n
        n += 1
    return n, index


def fault_position(rng: random.Random, n_max: int = EXPORT_N_MAX) -> tuple[int, int]:
    """A table entry (n, k), uniform over all n_max (n_max + 1) / 2 entries."""
    return entry_at(rng.randrange(n_max * (n_max + 1) // 2))


def bump_entry(path: Path, n: int, k: int) -> None:
    """Add 1 to entry (n, k) of a JSON table written by `wderiv table`.

    The file is ``{"n_max": N, "rows": [["..", ..], ..]}`` with decimal
    strings as entries, so the only brackets after "rows" delimit rows.
    """
    data = path.read_bytes()
    pos = data.index(b'"rows":[') + len(b'"rows":[')
    for _ in range(n):
        pos = data.index(b"[", pos) + 1
    end = data.index(b"]", pos)
    entries = data[pos:end].split(b",")
    if not 0 <= k < len(entries) or len(entries) != n:
        raise ValueError(f"row {n} of {path} has no entry {k}")
    entries[k] = b'"%d"' % (int(entries[k].strip(b'"')) + 1)
    path.write_bytes(data[:pos] + b",".join(entries) + data[end:])


# ------------------------------------------------------------ command checks

def check_clean_verify(code: int, payload: dict | None) -> str | None:
    """The default battery must pass: exit 0 and ``passed: true``."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if payload is None or payload.get("passed") is not True or payload.get("failures"):
        return f"verify did not report a pass: {payload!r:.200}"
    return None


def check_fault_report(code: int, payload: dict | None, n: int, k: int) -> str | None:
    """A bumped table must fail with exit 1 and name (n, k) first."""
    if code != 1:
        return f"exit code {code}, expected 1"
    if payload is None or payload.get("passed") is not False:
        return f"verify did not report a failure: {payload!r:.200}"
    failures = payload.get("failures") or []
    if not failures:
        return "verify reported no failures"
    first = failures[0]
    if (first.get("n"), first.get("k")) != (n, k):
        return (f"first failure names n={first.get('n')} k={first.get('k')}, "
                f"the bumped entry is n={n} k={k}")
    return None


# ---------------------------------------------------------------- numeric-mix

def _log_uniform(rng: random.Random, lo: float = 1e-6, hi: float = 1e6) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _fd_stencil_positive(n: int, x: float) -> bool:
    """The finite-difference stencil x +- n h stays > 0 (its documented domain)."""
    h = max(x, 1.0) * EPS ** (1.0 / (n + 2))
    return x - n * h > 0.0


def draw(rng: random.Random, route: str) -> tuple[str, int, float]:
    """One operation (route, n, x) over the route's documented domain.

    For ``pn_series_eval`` the float is w rather than x.
    """
    if route == "lambert_w":
        return route, 0, _log_uniform(rng)
    if route == "w_derivative":
        return route, rng.randint(1, NUMERIC_N_MAX), _log_uniform(rng)
    if route == "w_derivative_taylor":
        # |x| < 1/e; n <= 8 is the range the 1e-8 tolerance is stated for
        while True:
            x = rng.uniform(-1.0 / math.e, 1.0 / math.e)
            if abs(x) < 1.0 / math.e:
                return route, rng.randint(1, 8), x
    if route == "w_derivative_fd":
        n = rng.randint(1, 5)
        while True:
            x = _log_uniform(rng)
            if _fd_stencil_positive(n, x):
                return route, n, x
    if route == "pn_series_eval":
        # |w| <= 0.2; n <= 10 is the range the 1e-8 tolerance is stated for
        return route, rng.randint(1, 10), rng.uniform(-0.2, 0.2)
    raise ValueError(f"unknown route {route}")


def numeric_plan(seconds: float) -> list[int]:
    """Batches of each numeric-mix job in a run of about ``seconds``.

    The work is fixed by ``seconds`` alone, not by the clock, so one seed
    always gives the same operations and the same failure counts; the rates
    above were measured on the host the benchmark was written on, where a
    run takes about ``seconds``.
    """
    jobs = max(2, round(seconds / NUMERIC_JOB_S))
    return [max(1, round(seconds * NUMERIC_BATCHES_PER_S / jobs))] * jobs


def numeric_batches(seed: int, job: int):
    """Endless shuffled batches of never-repeated operations for one job."""
    rng = stream(seed, "numeric", job)
    seen: set[tuple[str, int, float]] = set()
    while True:
        batch = []
        for route, count in NUMERIC_MIX:
            for _ in range(count):
                op = draw(rng, route)
                while op in seen:
                    op = draw(rng, route)
                seen.add(op)
                batch.append(op)
        rng.shuffle(batch)
        yield batch
