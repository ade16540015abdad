"""Exhaustive exact verification of a coefficient table.

Every verdict here is exact: the property checks screen comparisons with
bounded-error floats but decide every close call with integers (see
``properties``).  Every check in the battery reads the table and can fail
on some table.  The battery is one pass over the rows (``_check_rows``)
through a list of stages, each a last row, its own failure list and a
check of row n that returns row n's failures: row n is drawn, given every
stage whose last row it has not passed, and dropped, so a run holds the
current row, the rows that differ from the recurrence's and the failures,
never the whole table.  Row n's kernel-sum values and its inverted row
(see below) are made once, at the top of the row, for the stages that
read them.  The stages, in the order their failures come, each list in
row order:

* ``route:<name>``, each chosen closed-form route in ``ROUTE_NAMES`` order,
  to the route horizon (n_max, default 40).  The four kernel-sum routes
  are decided on their inner values, the unsigned r-Stirling numbers,
  against the row inverted once (convolved only on a mismatch, to name the
  entries); Carlitz on its row.  ``explicit``, ``bernoulli`` and ``fdiff``
  normalise one row of power sums, so only the recurrence, the power sum,
  the r-Stirling recurrence and Carlitz are independent;
* ``identity:alternating_sum`` (the row's alternating sum against
  (2n-3)!!) and ``identity:inversion`` (the inverted row against the
  direct r-Stirling values, named at the first index that differs only,
  since one wrong entry k moves every inverted value from m = k on), to
  the route horizon, in one list.  The inversion compares the same two
  lists as the ``rstirling`` route, so it adds a check only where the
  routes leave ``rstirling`` out.  Convolving the inverted values back
  gives the row for any integer row, so that round trip is not run;
* ``property:<name>``, to the property horizon (n_max, default 200):
  positivity, log-concavity of k! times the row (decided as
  (k+1) c_{k-1} c_{k+1} <= k c_k^2) and the strict ratio bound (for
  n >= 3).  On a positive row that log-concavity decides the binomial
  inequality (Lemma 1), implies plain log-concavity, hence unimodality,
  and reduces the ratio bound to its first comparison; the full checks
  run only on rows where it fails (unimodality also on rows that are not
  positive), which gives the failure list of all five.

``route:recurrence`` is not a stage: the rows that differ from the
recurrence's are passed in, and their failures, made before the pass, come
first.  A table's come from one ``zip`` with the recurrence's rows, a
file's from ``tableio._recurrence_differences``; ``wderiv verify`` without
a file checks the recurrence's own rows, so it is not compared.  Every
route hands ``_route_failures`` only rows that differ: the recurrence all
of its rows at once, a closed-form route stage one row at a time.

``verify_carlitz_sums`` proves the Carlitz row-sum identity up to a given
kappa.  It reads no table, so the battery does not run it.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import partial
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

# n -> (table row n, a route's row n), on the rows where they differ
_Differing = Mapping[int, tuple[Sequence, Sequence]]


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


def _route_failures(name: str, differing: _Differing) -> list[CheckFailure]:
    """The entries where a table row and route ``name``'s row differ.

    ``differing`` maps n to (table row n, route row n), in increasing n, for
    the rows that differ.  Entries are ints, or decimal strings compared by
    value (``_differ``).
    """
    return [CheckFailure(n, k, f"route:{name}",
                         f"table has {int(got)}, {name} gives {int(want)}")
            for n, (got_row, want_row) in differing.items()
            for k, (got, want) in enumerate(zip(got_row, want_row)) if _differ(got, want)]


def _check_route(name: str, n: int, row: tuple[int, ...], values: Mapping[str, list[int]],
                 inverted: list[int]) -> list[CheckFailure]:
    """The failures of row n against route ``name``.  A kernel-sum route is
    decided on its inner values against the inverted row, and convolved
    only on a mismatch, to name the entries."""
    if name == "carlitz":
        made = closed_forms.beta_carlitz_row(n)
    else:
        made = row if values[name] == inverted else closed_forms._convolve(n, values[name])
    return [] if made == row else _route_failures(name, {n: (row, made)})


def _check_identities(n: int, row: tuple[int, ...], values: Mapping[str, list[int]],
                      inverted: list[int]) -> list[CheckFailure]:
    """The alternating sum against (2n-3)!!, then the inverted row against
    the direct r-Stirling values.  The inversion is triangular: a wrong
    entry k moves every inverted value from m = k on, so only the first m
    that differs is reported."""
    alt, want = triangle.alternating_sum(row), triangle.double_factorial(2 * n - 3)
    failures = [CheckFailure(n, None, "identity:alternating_sum",
                             f"sum {alt} != (2n-3)!! = {want}")] if alt != want else []
    if inverted != values["rstirling"]:
        for m, (s, direct) in enumerate(zip(inverted, values["rstirling"])):
            if s != direct:
                failures.append(CheckFailure(
                    n, m, "identity:inversion",
                    f"inverted value {s} != direct r-Stirling {direct}"))
                break
    return failures


def _check_properties(n: int, row: tuple[int, ...], *_: object) -> list[CheckFailure]:
    """The property failures of row n (see ``verify_properties``); it reads
    no shared values."""
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
            reports.append(properties.check_ratio_bound(row))
    return [CheckFailure(n, None, f"property:{report.property}",
                         f"first violation at index {report.first_violation}")
            for report in reports if not report.holds]


def _check_rows(rows: Iterable[tuple[int, ...]], routes: tuple[str, ...], n_max: int | None,
                recurrence: _Differing | None, *, identities: bool,
                with_properties: bool) -> list[CheckFailure]:
    """The battery's failures on ``rows``, rows 1, 2, ... of a table, and on
    ``recurrence``, the rows that differ from the recurrence's (None if it
    is not compared): the recurrence's first, then each stage's own list,
    in stage order.  The stages are those that ``routes``, ``identities``
    and ``with_properties`` ask for (a stage not asked for has last row
    0); each check takes (n, row, values, inverted).  Row n's shared values
    are made once, at the top of the row: ``values``, the r-Stirling values
    of ``kernel``, the chosen kernel-sum routes plus ``rstirling`` when the
    identities run (one ``_kernel_inner_values`` call, so the power-sum
    routes share one row of power sums, and all rows share the run's list
    ``signed`` of binomial rows, each made once), and ``inverted``, the
    row's own (``rstirling_from_beta_row``).  They are made on the rows to the
    route horizon, and only if ``kernel`` is not empty; every stage that
    reads them reads them on every row it checks.  No row past the last
    horizon is drawn.
    """
    if unknown := set(routes) - set(ROUTE_NAMES):
        raise ValueError(f"unknown routes: {sorted(unknown)}")
    route_end = _horizon(n_max, DEFAULT_ROUTE_N_MAX)
    property_end = _horizon(n_max, DEFAULT_PROPERTY_N_MAX) if with_properties else 0
    failures = [] if recurrence is None else _route_failures("recurrence", recurrence)
    stages = [(route_end, [], partial(_check_route, name))
              for name in closed_forms.ROUTE_ROWS if name in routes] + [
        (route_end if identities else 0, [], _check_identities),
        (property_end, [], _check_properties)]
    kernel = ({*routes, "rstirling"} if identities else set(routes)) - {"recurrence", "carlitz"}
    values, inverted, signed = {}, [], []
    for n, row in enumerate(islice(rows, max(end for end, _, _ in stages)), 1):
        if kernel and n <= route_end:
            values = dict(closed_forms._kernel_inner_values(n, kernel, signed=signed))
            inverted = closed_forms.rstirling_from_beta_row(row)
        for end, own, check in stages:
            if n <= end:
                own += check(n, row, values, inverted)
    return failures + [failure for _, own, _ in stages for failure in own]


def _check_table(table: CoefficientTable, routes: tuple[str, ...], n_max: int | None,
                 **flags: bool) -> list[CheckFailure]:
    """``_check_rows`` on ``table``, compared with the recurrence if that is
    among the routes."""
    made = enumerate(zip(table.rows[1:], triangle._rows(table.n_max, 1)), 1)
    recurrence = ({n: pair for n, pair in made if pair[0] != pair[1]}
                  if "recurrence" in routes else None)
    return _check_rows(table.rows[1:], routes, n_max, recurrence, **flags)


def verify_routes(table: CoefficientTable, routes: tuple[str, ...] = ROUTE_NAMES,
                  n_max: int | None = None) -> list[CheckFailure]:
    """Compare table rows against the requested routes.

    The recurrence reference always covers every row of the table; the
    closed-form routes are evaluated up to n_max (default 40), since each
    of their rows costs O(n^2) big-integer operations.  A kernel-sum
    route's row equals the table row iff its r-Stirling values equal the
    inverted row (``rstirling_from_beta_row``), since both kernels are unit
    lower-triangular and inverse to each other.  Failures come route by
    route, in ``ROUTE_NAMES`` order; a route that raises
    ``ConsistencyError`` does so on the first row where any route does.
    """
    return _check_table(table, routes, n_max, identities=False, with_properties=False)


def verify_properties(table: CoefficientTable, n_max: int | None = None) -> list[CheckFailure]:
    """Run the sequence-property checks on each row up to n_max (default 200).

    Plain log-concavity and unimodality, implied on a positive row by the
    k!-weighted log-concavity, run only where that fails.  Where it holds,
    the ratios r_k = (k+1) c_{k+1} / c_k do not increase, since
    r_k / r_{k-1} = (k+1) c_{k-1} c_{k+1} / (k c_k^2) <= 1.  So the ratio
    bound r_k < n-1 holds for every k iff c_1 < (n-1) c_0, and if it fails,
    it fails first at (0, 1); ``check_ratio_bound`` scans the row only where
    the weighted check or that one comparison fails.  On the triangle's rows
    it holds for every n >= 2 (see ``check_ratio_bound``), so the ratio
    bound for all n follows from the weighted log-concavity for all n.
    """
    return _check_table(table, (), n_max, identities=False, with_properties=True)


def verify_identities(table: CoefficientTable, n_max: int | None = None) -> list[CheckFailure]:
    """Alternating sum and inversion per row, up to n_max (default 40)."""
    return _check_table(table, (), n_max, identities=True, with_properties=False)


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


def run_verification(table: CoefficientTable, routes: tuple[str, ...] = ROUTE_NAMES,
                     n_max: int | None = None) -> list[CheckFailure]:
    """Run the full battery to row n_max and return all failures sorted by
    (n, k, check).  A horizon of None leaves each stage its own default."""
    failures = _check_table(table, routes, n_max, identities=True, with_properties=True)
    return sorted(failures, key=CheckFailure.sort_key)


def verify_table_file(path: str | None, routes: tuple[str, ...] = ROUTE_NAMES,
                      n_max: int | None = None) -> tuple[int, list[CheckFailure]]:
    """The file's n_max and ``run_verification`` of ``load_table(path)`` to
    row n_max (the file's n_max if None); with no path, n_max (default 200)
    and the battery on the recurrence's own rows, which are that route and
    so are not compared with it.

    A file is read once, by ``tableio._recurrence_differences``: its row
    count and the rows whose values differ from the recurrence's, as
    decimal strings, every row if ``recurrence`` is among the routes (they
    are then its failures) or n_max is None, else rows 1..n_max.  The pass
    checks the recurrence's int rows with those converted in their place,
    so no table is built and no row beyond the horizon becomes ``int``.  A
    file that ``load_table`` rejects raises the same ``ValueError`` as
    there.  After any file is read, ``_check_rows`` refuses unknown routes,
    then a horizon below 1, with ``ValueError``; None leaves each stage its
    own default horizon.  ``tableio`` and ``decimal`` load only for a file.
    """
    read, recurrence, rows = None, None, triangle._rows(None, 1)
    if path is not None:
        from . import tableio

        compared = "recurrence" in routes
        read, differing = tableio._recurrence_differences(path, None if compared else n_max)
        n_max, recurrence = read if n_max is None else n_max, differing if compared else None
        rows = (tuple(map(int, differing[n][0])) if n in differing else row
                for n, row in enumerate(triangle._rows(min(n_max, read), 1), 1))
    failures = _check_rows(rows, routes, n_max, recurrence,
                           identities=True, with_properties=True)
    return (_horizon(n_max, DEFAULT_PROPERTY_N_MAX) if read is None else read,
            sorted(failures, key=CheckFailure.sort_key))
