"""Exhaustive exact verification of a coefficient table.

Every verdict here is exact: the property checks screen comparisons with
bounded-error floats but decide every close call with integers (see
``properties``).  Every check in the battery reads the table and can fail
on some table.  They run in one pass over the rows (``_check_rows``): rows
are made, checked and dropped one at a time, each getting every check due
on it before the next is drawn, so a run holds the current row and the
rows that fail, never the whole table.  The checks:

* route agreement: every table entry against the recurrence (always over
  the full table, streamed one row at a time, so any corrupted entry is
  caught) and against the chosen closed-form routes up to a configurable
  row.  The four kernel-sum routes are decided row by row on their inner
  values, the unsigned r-Stirling numbers, against the table row inverted
  once (convolution only on a mismatch, to name the entries), and Carlitz
  on its row, in one pass.
  ``explicit``, ``bernoulli`` and ``fdiff`` normalise one row of power
  sums, so only the recurrence, the power sum, the r-Stirling recurrence
  and Carlitz are independent.  ``verify_table_file`` is ``wderiv
  verify``'s one entry, with one path: the pass checks the recurrence's
  int rows with a file's rows that differ from them converted in their
  place (``tableio`` gives those from one read, and they are the
  recurrence route's failures); with no file none differ, and the rows
  are not compared with the recurrence, which they are.  Both forms check
  their arguments in one place and order: ``_check_rows``, after any file
  is read, refuses unknown routes, then a horizon below 1.  Every route
  reports only the rows that differ to ``_route_failures``.  ``tableio``
  and ``decimal`` load only for a file;
* sequence properties per row: positivity, log-concavity of k! times the
  row (decided as (k+1) c_{k-1} c_{k+1} <= k c_k^2) and the strict ratio
  bound (for n >= 3).  On a positive row that log-concavity decides the
  binomial inequality (Lemma 1), implies plain log-concavity, hence
  unimodality, and reduces the ratio bound to its first comparison; the
  full checks run only on rows where it fails (unimodality also on rows
  that are not positive), which gives the failure list of all five;
* identities: the alternating row sum against (2n-3)!!, and the inversion
  row -> r-Stirling values against the direct r-Stirling values, one row at
  a time.  The inversion compares the same two lists as the ``rstirling``
  route, so it adds a check only where the routes leave ``rstirling`` out.
  Convolving the inverted values back gives the row for any integer row,
  so that round trip is not run.  The identities run with the kernel-sum
  routes, so each row is inverted and its r-Stirling values made once.

``verify_carlitz_sums`` proves the Carlitz row-sum identity up to a given
kappa.  It reads no table, so the battery does not run it.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import islice
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


def _horizon(n_max: int | None, default: int) -> int:
    """The last row a stage checks: n_max >= 1, or default if None."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return default if n_max is None else n_max


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


def _route_failures(
    name: str, differing: Mapping[int, tuple[Sequence, Sequence]]
) -> list[CheckFailure]:
    """The entries where a table row and route ``name``'s row differ.

    ``differing`` maps n to (table row n, route row n), in increasing n, for
    the rows that differ.  Entries are ints, or decimal strings compared by
    value (``_differ``).
    """
    return [CheckFailure(n, k, f"route:{name}",
                         f"table has {int(got)}, {name} gives {int(want)}")
            for n, (got_row, want_row) in differing.items()
            for k, (got, want) in enumerate(zip(got_row, want_row)) if _differ(got, want)]


def _check_rows(
    rows: Iterable[tuple[int, ...]],
    routes: tuple[str, ...],
    n_max: int | None,
    *,
    identities: bool,
    with_properties: bool,
) -> list[CheckFailure]:
    """The battery's failures on ``rows``, rows 1, 2, ... of a table,
    checked in one pass: each row gets every check due on it and is dropped
    before the next is drawn; only the rows that fail are kept.  Unless the
    recurrence is compared, no row past the last horizon is drawn.

    Row n gets the recurrence comparison if ``recurrence`` is among the
    routes; the other routes and, if ``identities``, the identities while
    n <= the route horizon; and, if ``with_properties``, the properties
    while n <= the property horizon (see ``verify_properties``).  Failures
    come route by route in ``ROUTE_NAMES`` order, then the identities',
    then the properties', each in row order.  Row n is inverted once
    (``_rstirling_from_row``) and its r-Stirling values made once: the
    ``rstirling`` route's inner values and the inversion identity's direct
    values are the same list.  Every kernel-sum route's values are compared
    with the inverted row as they come.
    """
    if unknown := set(routes) - set(ROUTE_NAMES):
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    route_end = _horizon(n_max, DEFAULT_ROUTE_N_MAX)
    property_end = _horizon(n_max, DEFAULT_PROPERTY_N_MAX) if with_properties else 0
    recurrence = triangle._rows(None, 1) if "recurrence" in routes else None
    # route -> {n: (row n, its row n)} on the rows where they differ
    differing: dict[str, dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = {
        name: {} for name in ROUTE_NAMES if name in routes}
    identity_failures: list[CheckFailure] = []
    property_failures: list[CheckFailure] = []
    kernel_routes = set(routes) | ({"rstirling"} if identities else set())
    want = 1  # (2n-3)!!, carried from row to row
    last = None if recurrence is not None else max(route_end, property_end)
    for n, row in enumerate(islice(rows, last), 1):
        if recurrence is not None and row != (made := next(recurrence)):
            differing["recurrence"][n] = (row, made)
        if n <= route_end:
            if identities:
                alt = triangle._alternating_sum(row)
                want *= max(2 * n - 3, 1)
                if alt != want:
                    identity_failures.append(CheckFailure(
                        n, None, "identity:alternating_sum",
                        f"sum {alt} != (2n-3)!! = {want}"))
            inverted = None
            for name, values in closed_forms._kernel_inner_values(n, kernel_routes):
                if inverted is None:
                    inverted = closed_forms._rstirling_from_row(n, row)
                if identities and name == "rstirling":
                    identity_failures += [
                        CheckFailure(n, m, "identity:inversion",
                                     f"inverted value {s} != direct r-Stirling {direct}")
                        for m, (s, direct) in enumerate(zip(inverted, values))
                        if s != direct]
                if name in differing and values != inverted:
                    differing[name][n] = (row, closed_forms._convolve(n, values))
            if "carlitz" in differing and (carlitz := closed_forms.beta_carlitz_row(n)) != row:
                differing["carlitz"][n] = (row, carlitz)
        if n <= property_end:
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
            property_failures += [
                CheckFailure(n, None, f"property:{report.property}",
                             f"first violation at index {report.first_violation}")
                for report in reports if not report.holds]
    failures = [failure for name, rows_of in differing.items()
                for failure in _route_failures(name, rows_of)]
    return failures + identity_failures + property_failures


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
    iff its r-Stirling values equal the inverted ones, since both kernels
    are unit lower-triangular and inverse to each other.  Only a route whose
    inner values differ is convolved, to name the entries that differ.
    Failures come route by route, in ``ROUTE_NAMES`` order; a route that
    raises ``ConsistencyError`` does so on the first row where any route
    does.  The entry comparison is shared with ``verify_table_file``, which
    feeds it text rows.
    """
    return _check_rows(table.rows[1:], routes, n_max,
                       identities=False, with_properties=False)


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
    return _check_rows(table.rows[1:], (), n_max,
                       identities=False, with_properties=True)


def verify_identities(
    table: CoefficientTable, n_max: int | None = None
) -> list[CheckFailure]:
    """Alternating sum and inversion per row, up to n_max (default 40)."""
    return _check_rows(table.rows[1:], (), n_max,
                       identities=True, with_properties=False)


def verify_carlitz_sums(kappa_max: int) -> list[CheckFailure]:
    """Row sums of the Carlitz triangle against (2 kappa - 1)!!, kappa <= kappa_max.

    Each entry of row kappa is a polynomial of degree <= kappa in lambda
    (every step of the recurrence multiplies by a linear factor), so the
    row sum is too.  Agreeing with the constant at the kappa + 1 points
    lambda = 0..kappa, as checked here, proves it equal for every lambda.
    """
    if kappa_max < 0:
        raise ValueError("kappa_max must be nonnegative")
    failures: list[CheckFailure] = []
    want = 1  # (2 kappa - 1)!!, carried from kappa to kappa
    for kappa in range(kappa_max + 1):
        want *= max(2 * kappa - 1, 1)
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
    failures = _check_rows(table.rows[1:], routes, n_max,
                           identities=True, with_properties=True)
    return sorted(failures, key=CheckFailure.sort_key)


def verify_table_file(
    path: str | None,
    routes: tuple[str, ...] = ROUTE_NAMES,
    n_max: int | None = None,
) -> tuple[int, list[CheckFailure]]:
    """The file's n_max and ``run_verification`` of ``load_table(path)`` to
    row n_max (the file's n_max if None); with no path, n_max (default 200)
    and the battery on the recurrence's own rows, which are that route and
    so are not compared with it.

    Both forms take one path.  A file is read once, by
    ``tableio._recurrence_differences``, which gives its row count and the
    rows whose values differ from the recurrence's, as decimal strings:
    every row if ``recurrence`` is among the routes or n_max is None, else
    rows 1..n_max only; those rows are the recurrence route's failures.
    ``_check_rows`` then makes, checks and drops the recurrence's int rows
    one at a time, with the rows that differ (none without a file)
    converted in their place, so no table is built and a row beyond the
    horizon is never converted to ``int``.  A file that ``load_table``
    rejects raises the same ``ValueError`` as there.  The arguments are
    checked in one place and order, after any file is read: ``_check_rows``
    refuses unknown routes, then a horizon below 1, with ``ValueError``.  A
    horizon of None leaves each stage its own default.  With ``rstirling``
    among the routes, ``identity:inversion`` re-checks that route's lists.
    """
    checked, read, differing, rows = False, None, {}, triangle._rows(None, 1)
    if path is not None:
        from . import tableio

        checked = "recurrence" in routes
        read, differing = tableio._recurrence_differences(path, None if checked else n_max)
        n_max = read if n_max is None else n_max
        rows = (tuple(map(int, differing[n][0])) if n in differing else row
                for n, row in enumerate(triangle._rows(min(n_max, read), 1), 1))
    failures = _route_failures("recurrence", differing) if checked else []
    failures += _check_rows(rows, tuple(route for route in routes if route != "recurrence"),
                            n_max, identities=True, with_properties=True)
    return (_horizon(n_max, DEFAULT_PROPERTY_N_MAX) if read is None else read,
            sorted(failures, key=CheckFailure.sort_key))
