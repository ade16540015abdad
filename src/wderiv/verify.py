"""Exhaustive exact verification of a coefficient table.

Every verdict here is exact: the property checks screen comparisons with
bounded-error floats but decide every close call with integers (see
``properties``).  Every check in the battery reads the table and can fail
on some table.  The checks:

* route agreement: every table entry against the recurrence (always over
  the full table, streamed one row at a time, so any corrupted entry is
  caught) and against the chosen closed-form routes up to a configurable
  row.  The four kernel-sum routes are decided row by row on their inner
  values, against the table row inverted once (convolution only on a
  mismatch, to name the entries), and Carlitz on its row, in one pass.
  ``explicit``, ``bernoulli`` and ``fdiff`` normalise one row of power
  sums, so only the recurrence, the power sum, the r-Stirling recurrence
  and Carlitz are independent.  A table built by the recurrence is that
  route, so ``wderiv verify`` does not compare the table it builds with it.
  ``verify_table_file`` checks a table file without converting it whole:
  the recurrence comparison runs on the file's decimal text, against
  ``str`` of exact-decimal recurrence rows, and only the rows up to the
  horizon become ints for the other checks.  A JSON file that ``wderiv
  table`` wrote is compared as bytes with the writer's own rows, so only
  a row that differs is decoded, and the other rows up to the horizon are
  the recurrence's int rows; any other file is decoded and validated
  whole by ``tableio.read_table_rows``.  ``verify_table_file`` imports
  ``tableio`` when it runs, so checking a built table loads neither it nor
  ``decimal``;
* sequence properties per row: positivity, log-concavity of k! times the
  row (decided as (k+1) c_{k-1} c_{k+1} <= k c_k^2) and the strict ratio
  bound (for n >= 3).  On a positive row that log-concavity decides the
  binomial inequality (Lemma 1), implies plain log-concavity, hence
  unimodality, and reduces the ratio bound to its first comparison; the
  full checks run only on rows where it fails (unimodality also on rows
  that are not positive), which gives the failure list of all five;
* identities: the alternating row sum against (2n-3)!!, and the inversion
  row -> r-Stirling values against the direct r-Stirling values, one row at
  a time.  Convolving the inverted values back gives the row for any
  integer row, so that round trip is not run.  ``run_verification`` checks
  the identities in the kernel-sum routes' pass over the rows, so each row
  is inverted and its r-Stirling values made once.

``verify_carlitz_sums`` proves the Carlitz row-sum identity up to a given
kappa.  It reads no table, so the battery does not run it.

Checks are pure functions of an immutable table; rows could be fanned out
to parallel workers, but results are reported in (n, k) order regardless.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import closed_forms, properties, triangle
from .triangle import CoefficientTable, _differ

__all__ = [
    "CheckFailure",
    "ROUTE_NAMES",
    "verify_routes",
    "verify_properties",
    "verify_identities",
    "verify_carlitz_sums",
    "run_verification",
    "verify_table_file",
]

ROUTE_NAMES = ("recurrence",) + tuple(closed_forms.ROUTE_ROWS)

DEFAULT_ROUTE_N_MAX = 40
DEFAULT_PROPERTY_N_MAX = 200


def _horizon(n_max: int | None, default: int, limit: int) -> int:
    """The last row a stage checks: n_max >= 1, or default if None, capped at limit."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return min(limit, default if n_max is None else n_max)


class CheckFailure(NamedTuple):
    """One failed check; k is None for row-level and identity checks."""

    n: int
    k: int | None
    check: str
    detail: str

    def sort_key(self) -> tuple[int, int, str]:
        # row-level checks (k is None) sort after any entry-precise failure
        # in the same row, so the first reported failure names an entry
        return (self.n, 10**9 if self.k is None else self.k, self.check)


def _route_failures(name: str, pairs: Iterable[tuple[Sequence, Sequence]]) -> list[CheckFailure]:
    """The entries where a table row and route ``name``'s row differ.

    ``pairs`` holds (table row, route row) for n = 1, 2, ...  Entries are
    ints, or decimal strings compared by value (``_differ``).
    """
    failures: list[CheckFailure] = []
    for n, (got_row, want_row) in enumerate(pairs, 1):
        if got_row == want_row:
            continue
        for k, (got, want) in enumerate(zip(got_row, want_row)):
            if _differ(got, want):
                failures.append(CheckFailure(
                    n, k, f"route:{name}",
                    f"table has {int(got)}, {name} gives {int(want)}"))
    return failures


def _table_checks(
    table: CoefficientTable,
    routes: tuple[str, ...],
    n_max: int | None,
    identities: bool,
) -> list[CheckFailure]:
    """The route failures for ``routes``, then, if ``identities``, the
    identity failures row by row; the rows of both share one pass.

    Row n of the table is inverted once (``rstirling_from_beta_row``) and
    its r-Stirling values (``rstirling_values``) are made once: the
    ``rstirling`` route's inner values and the inversion identity's direct
    values are the same list, signed.
    """
    if unknown := set(routes) - set(ROUTE_NAMES):
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    n_max = _horizon(n_max, DEFAULT_ROUTE_N_MAX, table.n_max)
    failures: list[CheckFailure] = []
    if "recurrence" in routes:
        failures += _route_failures(
            "recurrence", zip(table.rows[1:], triangle._rows(table.n_max, 1)))
    # closed-form route -> {n: its row n} on the rows where it differs
    differing: dict[str, dict[int, tuple[int, ...]]] = {
        name: {} for name in closed_forms.ROUTE_ROWS if name in routes}
    identity_failures: list[CheckFailure] = []
    kernel_routes = set(routes) | ({"rstirling"} if identities else set())
    for n in range(1, n_max + 1):
        if identities:
            alt = triangle.alternating_sum(n, table)
            want = triangle.double_factorial(2 * n - 3)
            if alt != want:
                identity_failures.append(CheckFailure(
                    n, None, "identity:alternating_sum",
                    f"sum {alt} != (2n-3)!! = {want}"))
        inverted = None
        for name, context, inner in closed_forms._kernel_inner_values(n, kernel_routes):
            if inverted is None:
                inverted = closed_forms._alternating(
                    closed_forms.rstirling_from_beta_row(n, table))
            if identities and name == "rstirling":
                # entry m of both lists carries the sign (-1)^m
                identity_failures += [
                    CheckFailure(n, m, "identity:inversion",
                                 f"inverted value {-s if m % 2 else s} != "
                                 f"direct r-Stirling {-direct if m % 2 else direct}")
                    for m, (s, direct) in enumerate(zip(inverted, inner))
                    if s != direct]
            if name in differing and inner != inverted:
                differing[name][n] = closed_forms._convolve(n, inner, context)
        if "carlitz" in differing:
            row = closed_forms.beta_carlitz_row(n)
            if row != table.rows[n]:
                differing["carlitz"][n] = row
    rows = table.rows[1:n_max + 1]
    for name, rows_of in differing.items():
        failures += _route_failures(
            name, ((row, rows_of.get(n, row)) for n, row in enumerate(rows, 1)))
    return failures + identity_failures


def verify_routes(
    table: CoefficientTable,
    routes: tuple[str, ...] = ROUTE_NAMES,
    n_max: int | None = None,
) -> list[CheckFailure]:
    """Compare table rows against the requested routes.

    The recurrence reference always covers every row of the table, streamed
    one row at a time; the closed-form routes are evaluated up to n_max
    (default 40), since each of their rows costs O(n^2) big-integer
    operations.  The kernel-sum routes are decided row by row on their
    inner values: row n of the table is inverted once
    (``rstirling_from_beta_row``), and a route's row equals the table row
    iff its inner values equal the signed inverted ones, since both kernels
    are unit lower-triangular and inverse to each other.  Only a route whose
    inner values differ is convolved, to name the entries that differ.
    Failures come route by route, in ``ROUTE_NAMES`` order; a route that
    raises ``ConsistencyError`` does so on the first row where any route
    does.  The comparison loop is shared with ``verify_table_file``, which
    feeds it text rows.
    """
    return _table_checks(table, routes, n_max, identities=False)


def verify_properties(
    table: CoefficientTable, n_max: int | None = None
) -> list[CheckFailure]:
    """Run the sequence-property checks on each row up to n_max (default 200).

    Plain log-concavity and unimodality, implied on a positive row by the
    k!-weighted log-concavity, run only where that fails.  Where it holds,
    the ratios r_k = (k+1) c_{k+1} / c_k do not increase, since
    r_k / r_{k-1} = (k+1) c_{k-1} c_{k+1} / (k c_k^2) <= 1.  So the ratio
    bound r_k < n-1 holds for every k iff c_1 < (n-1) c_0, and if it fails,
    it fails first at (0, 1); ``check_ratio_bound`` scans the row only where
    the weighted check or that one comparison fails.
    """
    n_max = _horizon(n_max, DEFAULT_PROPERTY_N_MAX, table.n_max)
    failures: list[CheckFailure] = []
    for n in range(1, n_max + 1):
        row = table.rows[n]
        positive = properties.is_positive(row)
        reports = [positive]
        if not positive.holds:
            reports.append(properties.is_unimodal(row))
        else:
            weighted = properties.is_log_concave_weighted(row)
            if not weighted.holds:
                reports += [properties.is_unimodal(row), properties.is_log_concave(row)]
            reports.append(weighted)
            if n >= 3 and not (weighted.holds and row[1] < (n - 1) * row[0]):
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
    """Alternating sum and inversion per row, up to n_max (default 40)."""
    return _table_checks(table, (), n_max, identities=True)


def verify_carlitz_sums(kappa_max: int) -> list[CheckFailure]:
    """Row sums of the Carlitz triangle against (2 kappa - 1)!!, kappa <= kappa_max.

    Each entry of row kappa is a polynomial of degree <= kappa in lambda
    (every step of the recurrence multiplies by a linear factor), so the
    row sum is too.  Agreeing with the constant at the kappa + 1 points
    lambda = 0..kappa, as checked here, proves it equal for every lambda.
    """
    failures: list[CheckFailure] = []
    for kappa in range(kappa_max + 1):
        want = triangle.double_factorial(2 * kappa - 1)
        for lam in range(kappa + 1):
            got = sum(closed_forms.carlitz_row(kappa, lam))
            if got != want:
                failures.append(CheckFailure(
                    kappa, None, "identity:carlitz_row_sum",
                    f"sum {got} at lambda={lam} != (2k-1)!! = {want}"))
    return failures


def run_verification(
    table: CoefficientTable,
    routes: tuple[str, ...] = ROUTE_NAMES,
    n_max: int | None = None,
) -> list[CheckFailure]:
    """Run the full battery to row n_max and return all failures sorted by
    (n, k, check).  A horizon of None leaves each stage its own default."""
    failures = _table_checks(table, routes, n_max, identities=True)
    failures += verify_properties(table, n_max)
    return sorted(failures, key=CheckFailure.sort_key)


def verify_table_file(
    path: str,
    routes: tuple[str, ...] = ROUTE_NAMES,
    n_max: int | None = None,
) -> tuple[int, list[CheckFailure]]:
    """The file's n_max and ``run_verification`` of ``load_table(path)`` to
    row n_max (the file's n_max if None).

    The recurrence route runs on the file's decimal text, against ``str``
    of the exact-decimal recurrence rows (``triangle._exact_rows``), so a
    row beyond the horizon is never converted to ``int``.  A JSON file laid
    out as ``wderiv table`` writes it is matched byte for byte against the
    writer's chunks of those rows (``tableio._json_differences``): a row
    that matches is neither decoded nor validated, and rows 1..n_max are
    the int recurrence rows (``triangle._rows``) with the rows that differ
    decoded in their place.  Any other file, and any file when
    ``recurrence`` is not among the routes, is read once by
    ``tableio.read_table_rows``, giving rows 1..n_max as ints and the rows
    whose values differ.  Rows 1..n_max become the table that the
    closed-form routes, the properties and the identities check.  A file
    that ``load_table`` rejects raises the same
    ``ValueError``, and so does a bad argument, after the file is read as
    it would be there.
    """
    from . import tableio

    keep = math.inf if n_max is None else max(n_max, 1)

    def exact() -> Iterator[tuple[str, ...]]:
        return (tuple(map(str, row)) for row in triangle._exact_rows(None))

    checked = "recurrence" in routes
    found = tableio._json_differences(path, exact()) if checked else None
    if found is not None:
        read, differing = found
        head = list(triangle._rows(min(keep, read), 1))
        for n, (got, _) in differing.items():
            if n <= keep:
                head[n - 1] = tuple(map(int, got))
    else:
        read, differing, head = 0, {}, []
        wanted = exact()
        for read, got in enumerate(tableio.read_table_rows(path), 1):
            if read <= keep:
                head.append(tuple(map(int, got)))
            if checked and (want := next(wanted)) != got and any(map(_differ, got, want)):
                differing[read] = (got, want)
    failures: list[CheckFailure] = []
    if checked:
        # a row that is not in differing is the recurrence row: an empty
        # pair stands for it
        failures += _route_failures(
            "recurrence", (differing.get(n, ((), ())) for n in range(1, read + 1)))
    failures += run_verification(
        CoefficientTable(n_max=len(head), rows=((),) + tuple(head)),
        tuple(route for route in routes if route != "recurrence"),
        read if n_max is None else n_max)
    return read, sorted(failures, key=CheckFailure.sort_key)
