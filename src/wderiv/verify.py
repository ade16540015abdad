"""Exhaustive exact verification of a coefficient table.

Every verdict here is exact: the property checks screen comparisons with
bounded-error floats but decide every close call with integers (see
``properties``).  Every check run here can fail on some table.  The checks:

* route agreement: every table entry against the recurrence (always over
  the full table, so any corrupted entry is caught) and against the chosen
  closed-form routes up to a configurable row; when the table was itself
  built by the recurrence, that first comparison only checks determinism;
* sequence properties per row: positivity, log-concavity of the row and of
  k! times the row, unimodality and the strict ratio bound (for n >= 3).
  The weighted log-concavity decides the binomial inequality (Lemma 1), so
  the Lemma 1 check is not run on top of it.  It also implies the plain
  log-concavity, which in a positive row implies unimodality; those two can
  still fail where it fails, so each is reported;
* identities: the alternating row sum against (2n-3)!!, the factorial
  identity for the last entry, and the inversion row -> r-Stirling values
  against the direct r-Stirling values, one row at a time.  Convolving the
  inverted values back gives the row for any integer row, so that round
  trip is not run;
* row sums of the Carlitz-style triangle against (2 kappa - 1)!! at several
  lambda values (checking lambda-independence empirically).

Checks are pure functions of an immutable table; rows could be fanned out
to parallel workers, but results are reported in (n, k) order regardless.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import closed_forms, properties, triangle
from .triangle import CoefficientTable

__all__ = [
    "CheckFailure",
    "ROUTE_NAMES",
    "verify_routes",
    "verify_properties",
    "verify_identities",
    "verify_carlitz_sums",
    "run_verification",
]

ROUTE_NAMES = ("recurrence",) + tuple(closed_forms.ROUTE_ROWS)

DEFAULT_ROUTE_N_MAX = 40
DEFAULT_PROPERTY_N_MAX = 200
DEFAULT_CARLITZ_KAPPA_MAX = 30


def _horizon(n_max: int | None, default: int, limit: int) -> int:
    """The last row a stage checks: n_max >= 1, or default if None, capped at limit."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return min(limit, default if n_max is None else n_max)


@dataclass(frozen=True)
class CheckFailure:
    """One failed check; k is None for row-level and identity checks."""

    n: int
    k: int | None
    check: str
    detail: str

    def sort_key(self) -> tuple[int, int, str]:
        # row-level checks (k is None) sort after any entry-precise failure
        # in the same row, so the first reported failure names an entry
        return (self.n, 10**9 if self.k is None else self.k, self.check)


def verify_routes(
    table: CoefficientTable,
    routes: tuple[str, ...] = ROUTE_NAMES,
    n_max: int | None = None,
) -> list[CheckFailure]:
    """Compare table rows against the requested routes.

    The recurrence reference always covers every row of the table; the
    closed-form routes are evaluated up to n_max (default 40), since each of
    their rows costs O(n^2) big-integer operations.  The reference is a
    fresh ``build_table``, so on a table built the same way it checks only
    that the build is deterministic.
    """
    unknown = set(routes) - set(ROUTE_NAMES)
    if unknown:
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    n_max = _horizon(n_max, DEFAULT_ROUTE_N_MAX, table.n_max)
    failures: list[CheckFailure] = []

    def compare(name: str, n: int, want_row: tuple[int, ...]) -> None:
        for k, (got, want) in enumerate(zip(table.rows[n], want_row)):
            if got != want:
                failures.append(CheckFailure(
                    n, k, f"route:{name}", f"table has {got}, {name} gives {want}"))

    if "recurrence" in routes:
        reference = triangle.build_table(table.n_max)
        for n in range(1, table.n_max + 1):
            compare("recurrence", n, reference.rows[n])

    for name, row_of in closed_forms.ROUTE_ROWS.items():
        if name in routes:
            for n in range(1, n_max + 1):
                compare(name, n, row_of(n))
    return failures


def verify_properties(
    table: CoefficientTable, n_max: int | None = None
) -> list[CheckFailure]:
    """Run the sequence-property checks on each row up to n_max (default 200).

    The binomial inequality is decided by the k!-weighted log-concavity
    reported here, so it gets no check of its own.
    """
    n_max = _horizon(n_max, DEFAULT_PROPERTY_N_MAX, table.n_max)
    failures: list[CheckFailure] = []
    for n in range(1, n_max + 1):
        row = table.rows[n]
        positive = properties.is_positive(row)
        reports = [positive, properties.is_unimodal(row)]
        if positive.holds:
            reports.append(properties.is_log_concave(row))
            reports.append(properties.is_log_concave_weighted(row))
            if n >= 3:
                reports.append(properties.check_ratio_bound(n, row))
        for report in reports:
            if not report.holds:
                failures.append(CheckFailure(
                    n, None, f"property:{report.property}",
                    f"first violation at index {report.first_violation}"))
    return failures


def verify_identities(
    table: CoefficientTable, n_max: int | None = None
) -> list[CheckFailure]:
    """Alternating sum, factorial identity and inversion per row.

    Rows run up to n_max (default 40).
    """
    n_max = _horizon(n_max, DEFAULT_ROUTE_N_MAX, table.n_max)
    failures: list[CheckFailure] = []
    for n in range(1, n_max + 1):
        alt = triangle.alternating_sum(n, table)
        want = triangle.double_factorial(2 * n - 3)
        if alt != want:
            failures.append(CheckFailure(
                n, None, "identity:alternating_sum",
                f"sum {alt} != (2n-3)!! = {want}"))

        directs = closed_forms.rstirling_values(n)
        left, right = closed_forms._factorial_identity(directs)
        if left != right:
            failures.append(CheckFailure(
                n, None, "identity:factorial",
                f"left {left} != (n-1)! = {right}"))

        stirlings = closed_forms.rstirling_from_beta_row(n, table)
        for m, (s, direct) in enumerate(zip(stirlings, directs)):
            if s != direct:
                failures.append(CheckFailure(
                    n, m, "identity:inversion",
                    f"inverted value {s} != direct r-Stirling {direct}"))
    return failures


def lambda_values(kappa: int, samples: int) -> list[int]:
    """Deterministic distinct lambda values for the row-sum check, samples >= 1.

    kappa + 1 first, then a fixed pool, then the odd numbers from 29.
    """
    pool = (kappa + 1, 0, 7, 11, 13, -3, 17, 19, 23, -5,
            *range(29, 31 + 2 * samples, 2))
    return list(dict.fromkeys(pool))[:samples]


def verify_carlitz_sums(kappa_max: int, samples: int = 3) -> list[CheckFailure]:
    """Row sums of the Carlitz triangle equal (2 kappa - 1)!! for every lambda."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    failures: list[CheckFailure] = []
    for kappa in range(kappa_max + 1):
        want = triangle.double_factorial(2 * kappa - 1)
        for lam in lambda_values(kappa, samples):
            got = sum(closed_forms.carlitz_row(kappa, lam))
            if got != want:
                failures.append(CheckFailure(
                    kappa, None, "identity:carlitz_row_sum",
                    f"sum {got} at lambda={lam} != (2k-1)!! = {want}"))
    return failures


def run_verification(
    table: CoefficientTable,
    routes: tuple[str, ...] = ROUTE_NAMES,
    route_n_max: int | None = None,
    property_n_max: int | None = None,
    identity_n_max: int | None = None,
    lambda_samples: int = 3,
) -> list[CheckFailure]:
    """Run the full battery and return all failures sorted by (n, k, check).

    The Carlitz sums run to kappa <= 30 and the identity horizon; they do not
    read the table, so only a horizon of None is capped at it.
    """
    failures = verify_routes(table, routes, route_n_max)
    failures += verify_properties(table, property_n_max)
    failures += verify_identities(table, identity_n_max)
    kappa_max = _horizon(identity_n_max, min(DEFAULT_ROUTE_N_MAX, table.n_max),
                         DEFAULT_CARLITZ_KAPPA_MAX)
    failures += verify_carlitz_sums(kappa_max, lambda_samples)
    return sorted(failures, key=CheckFailure.sort_key)
