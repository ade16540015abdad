"""Helpers of the verification battery not reached through the CLI tests."""
import contextlib
import io
import itertools
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import csv_text, traced_peak
from test_tableio import BAD_CSV_TABLES, BAD_JSON_TABLES, LOAD_EDGES
from wderiv import (CoefficientTable, ROUTE_NAMES, build_table, closed_forms, load_table,
                    properties, run_verification, table_to_json, tableio,
                    triangle, verify)
from wderiv.cli import main
from wderiv.verify import CheckFailure, verify_carlitz_sums, verify_properties

GOLDEN = Path(__file__).parent / "golden"


def ref_verify_properties(table, n_max):
    """The loop verify_properties replaced: every check on every row."""
    failures = []
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


TABLE40 = build_table(40)
TABLE50 = build_table(50)


@st.composite
def changed_tables(draw, base=TABLE40):
    """``base`` with one entry moved by +-1 or scaled up."""
    n = draw(st.integers(min_value=1, max_value=base.n_max))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    old = base.rows[n][k]
    new = draw(st.one_of(st.sampled_from([old + 1, old - 1]),
                         st.integers(min_value=2, max_value=10**6).map(old.__mul__)))
    rows = list(base.rows)
    rows[n] = rows[n][:k] + (new,) + rows[n][k + 1:]
    return CoefficientTable(n_max=base.n_max, rows=tuple(rows))


class TestPropertiesMatchEveryCheckOnEveryRow:
    @settings(max_examples=150, deadline=None)
    @given(changed_tables())
    def test_changed_entry(self, table):
        assert verify_properties(table) == ref_verify_properties(table, 40)

    @pytest.mark.parametrize("name", ["table12_bumped_9_4.json",
                                      "table12_raised_10_7.json"])
    def test_golden_tables(self, name):
        table = load_table(str(GOLDEN / name))
        assert verify_properties(table) == ref_verify_properties(table, 12)

    def test_implied_checks_skip_a_clean_table(self, monkeypatch):
        calls = []
        for name in ("is_log_concave", "is_unimodal", "check_ratio_bound"):
            monkeypatch.setattr(properties, name,
                                lambda *args, name=name: calls.append(name))
        assert verify_properties(build_table(200)) == []
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(min_value=3, max_value=40),
                           st.tuples(st.integers(min_value=1, max_value=6),
                                     st.integers(min_value=1, max_value=6),
                                     st.integers(min_value=1, max_value=10**6)),
                           min_size=1, max_size=6))
    def test_binomial_rows(self, replaced):
        """Row n replaced by c_k = s C(n-1, k) p^k q^(n-1-k): k!-weighted
        log-concave, with (k+1) c_{k+1} / c_k = (n-1-k) p/q, so the ratio
        bound fails first at (0, 1) exactly when p >= q."""
        rows = list(TABLE40.rows)
        for n, (p, q, scale) in replaced.items():
            rows[n] = tuple(scale * math.comb(n - 1, k) * p**k * q**(n - 1 - k)
                            for k in range(n))
        table = CoefficientTable(n_max=40, rows=tuple(rows))
        got = verify_properties(table)
        assert got == ref_verify_properties(table, 40)
        assert {f.n for f in got} == {n for n, (p, q, _) in replaced.items() if p >= q}


def test_default_verify_builds_no_table(monkeypatch, capsys):
    """The default ``verify`` checks each recurrence row as it is made: it
    builds no table, draws rows 1..200 once and runs the battery once."""
    calls, drawn = [], []
    for module, name in ((triangle, "build_table"), (verify, "run_verification")):
        monkeypatch.setattr(module, name, lambda *args, name=name, func=getattr(module, name):
                            calls.append((name, args)) or func(*args))
    rows = triangle._rows

    def spy_rows(*args):
        calls.append(("_rows", args))
        return (drawn.append(len(row)) or row for row in rows(*args))

    monkeypatch.setattr(triangle, "_rows", spy_rows)
    assert main(["verify"]) == 0
    assert calls == [("_rows", (None, 1))]
    assert drawn == list(range(1, 201))


def test_default_verify_calls_the_property_checks_through_the_module(monkeypatch, capsys):
    """The default ``verify`` looks ``is_positive`` and
    ``is_log_concave_weighted`` up on ``properties`` at each call, once per
    row for rows 1..200, so a wrapper installed there sees every call."""
    calls = Counter()
    for name in ("is_positive", "is_log_concave_weighted"):
        monkeypatch.setattr(properties, name, lambda row, name=name, func=getattr(properties, name):
                            calls.update([name]) or func(row))
    assert main(["verify"]) == 0
    assert calls == {"is_positive": 200, "is_log_concave_weighted": 200}


class TestRowPassMemory:
    """``verify`` holds the row it checks and the rows that fail, not the
    table.  Each call runs once first, so the modules it imports on first
    use (``tableio``, ``decimal``) are not counted."""

    @staticmethod
    def warm_peak(func, *args):
        func(*args)
        return traced_peak(func, *args)

    def test_default_verify_below_a_quarter_of_the_table(self, capsys):
        peak = self.warm_peak(main, ["verify", "--format", "json"])
        assert peak < self.warm_peak(build_table, 200) / 4

    def test_table_file_below_the_table(self, tmp_path):
        path = tmp_path / "t120.json"
        with path.open("w", encoding="ascii") as fh:
            fh.writelines(tableio.built_table_chunks(120, "json"))
        peak = self.warm_peak(verify.verify_table_file, str(path), ("recurrence",))
        assert peak < self.warm_peak(build_table, 120)


def test_kernel_routes_build_each_row_in_one_pass(monkeypatch):
    """Per-row helpers, not per-entry sums: a guard that times nothing.

    On a clean table ``verify_routes`` convolves nothing: each kernel-sum
    route is decided on its inner values.  ``explicit``, ``bernoulli`` and
    ``fdiff`` share one row of power sums per row, made also for
    ``explicit`` alone; the ``rstirling`` route and the identities share
    one row of r-Stirling values and one inverted table row, made by the
    row pass, and nothing calls the scalar power sum ``_power_diff``.  A
    pass that runs no kernel-sum route and no identity makes none of
    them, and none is made past the route horizon.
    """
    calls = []

    def spy(name):
        func = getattr(closed_forms, name)

        def wrapped(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return func(*args)
        return wrapped

    for name in ("_convolve", "_power_diff", "_power_sums", "rstirling_values",
                 "_rstirling_from_row"):
        monkeypatch.setattr(closed_forms, name, spy(name))
    every = {
        ("_power_sums", "_kernel_inner_values"): 40,
        ("rstirling_values", "_kernel_inner_values"): 40,
        ("_rstirling_from_row", "_check_rows"): 40,
    }
    table40 = build_table(40)
    for routes in (tuple(closed_forms.ROUTE_ROWS), ("explicit",)):
        calls.clear()
        assert run_verification(table40, routes) == []
        assert Counter(calls) == every, routes
    runs = [
        (lambda: verify.verify_routes(table40, ("carlitz",)), {}),
        (lambda: verify_properties(table40), {}),
        (lambda: verify.verify_identities(table40),
         {("rstirling_values", "_kernel_inner_values"): 40,
          ("_rstirling_from_row", "_check_rows"): 40}),
        (lambda: run_verification(build_table(60)), every),
    ]
    for run, made in runs:
        calls.clear()
        assert run() == []
        assert Counter(calls) == made


def test_a_run_makes_each_signed_binomial_row_once(monkeypatch):
    """The signed binomial rows (-1)^(m-q) C(m, q) behind the power sums do
    not depend on the table row, so a run makes each once: rows 1..39 by
    Pascal's rule for table rows 1..40, where making them afresh for each
    table row took 780.  Each is made from the one before by ``sub`` over
    the shifted row, which ends with the one ``sub(b, 0)``, so those calls
    count the rows made."""
    made = Counter()

    def counted_sub(a, b):
        made.update([b == 0])
        return a - b

    monkeypatch.setattr(closed_forms, "sub", counted_sub)
    assert run_verification(build_table(40)) == []
    assert made[True] == 39
    made.clear()
    assert closed_forms.beta_explicit_row(40) == TABLE40.rows[40]
    assert made[True] == 39  # a route function makes its own per call


def test_only_a_given_table_meets_the_recurrence(monkeypatch, tmp_path):
    """The table ``verify`` builds is the recurrence route; a file is not.

    A route hands ``_route_failures`` only the rows that differ, one call
    per differing row; the recurrence's rows are handed over once, before
    the pass.  So a clean run makes no call, a clean 60-row file one
    ``recurrence`` call with no rows, and that file with entry (41, 7)
    bumped the ``recurrence`` call first, then one call of row 41 alone
    per route, whether the byte matcher (JSON) or the strict reader (CSV)
    reads it."""
    calls = []
    compare = verify._route_failures

    def spy(name, differing):
        calls.append((name, differing))
        return compare(name, differing)

    monkeypatch.setattr(verify, "_route_failures", spy)
    assert main(["verify"]) == 0
    assert calls == []
    rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
    path = tmp_path / "clean.json"
    path.write_text(table_text(rows, "json"), encoding="ascii")
    assert main(["verify", "--table", str(path)]) == 0
    assert calls == [("recurrence", {})]
    rows[40][7] = spelled(TABLE60.rows[41][7], "bump")
    for fmt in ("json", "csv"):
        calls.clear()
        path = tmp_path / f"t60.{fmt}"
        path.write_text(table_text(rows, fmt), encoding="ascii")
        assert main(["verify", "--table", str(path)]) == 1
        assert [name for name, _ in calls] == ["recurrence", *closed_forms.ROUTE_ROWS]
        for name, differing in calls:
            assert list(differing) == [41], (fmt, name)
            got, want = differing[41]
            assert [k for k in range(41) if triangle._differ(got[k], want[k])] == [7]


def ref_verify_routes(table, routes, n_max):
    """The route-major loop verify_routes replaced: each route's rows built
    whole by its row function and compared with the table, route by route."""
    n_max = min(n_max, table.n_max)
    failures = []
    if "recurrence" in routes:
        failures += verify._route_failures(
            "recurrence", dict(enumerate(zip(table.rows[1:], triangle._rows(table.n_max, 1)), 1)))
    for name, row_of in closed_forms.ROUTE_ROWS.items():
        if name in routes:
            failures += verify._route_failures(
                name, {n: (table.rows[n], row_of(n)) for n in range(1, n_max + 1)})
    return failures


# the helper behind each kernel-sum route's inner values
INNER_HELPERS = {"explicit": "_explicit_inner", "rstirling": "rstirling_values",
                 "bernoulli": "_bernoulli_inner", "fdiff": "_forward_diff_inner"}
ROW_FUNCTIONS = {"explicit": "beta_explicit_row", "rstirling": "beta_rstirling_row",
                 "bernoulli": "beta_bernoulli_row", "fdiff": "beta_forward_diff_row"}
route_subsets = st.sets(st.sampled_from(ROUTE_NAMES), min_size=1).map(
    lambda chosen: tuple(name for name in ROUTE_NAMES if name in chosen))
horizons = st.sampled_from([1, 12, 40, 50])


@st.composite
def inner_mutants(draw):
    """(route, n, m): a kernel-sum route and an inner value of row n <= 50."""
    route = draw(st.sampled_from(sorted(INNER_HELPERS)))
    n = draw(st.integers(min_value=1, max_value=50))
    return route, n, draw(st.integers(min_value=0, max_value=n - 1))


def outcome(func, *args):
    """func(*args), or the message of the ``ConsistencyError`` it raises."""
    try:
        return func(*args)
    except closed_forms.ConsistencyError as err:
        return ("ConsistencyError", str(err))


class TestRoutesMatchRouteByRouteRows:
    """``verify_routes`` decides the kernel-sum routes on inner values, row
    by row; it gives the failure list of building every route's rows."""

    @settings(max_examples=40, deadline=None)
    @given(changed_tables(TABLE50), route_subsets, horizons)
    def test_changed_entry(self, table, routes, horizon):
        assert verify.verify_routes(table, routes, horizon) == ref_verify_routes(
            table, routes, horizon)

    def test_every_subset_on_a_bumped_table(self):
        rows = list(TABLE40.rows)
        rows[9] = rows[9][:4] + (rows[9][4] + 1,) + rows[9][5:]
        table = CoefficientTable(n_max=40, rows=tuple(rows))
        for size in range(1, len(ROUTE_NAMES) + 1):
            for routes in itertools.combinations(ROUTE_NAMES, size):
                got = verify.verify_routes(table, routes, 12)
                assert got == ref_verify_routes(table, routes, 12), routes
                assert {f.check for f in got} == {f"route:{r}" for r in routes}

    @settings(max_examples=40, deadline=None)
    @given(inner_mutants(), route_subsets, horizons)
    def test_inner_value_off_by_one(self, mutant, routes, horizon):
        route, n, m = mutant
        helper = getattr(closed_forms, INNER_HELPERS[route])

        def off_by_one(row, *args):
            inner = helper(row, *args)
            if row == n:
                inner[m] += 1
            return inner

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closed_forms, INNER_HELPERS[route], off_by_one)
            got = verify.verify_routes(TABLE50, routes, horizon)
            want = ref_verify_routes(TABLE50, routes, horizon)
        assert got == want
        assert bool(got) == (route in routes and n <= horizon)

    @settings(max_examples=40, deadline=None)
    @given(inner_mutants().filter(lambda mutant: mutant[2] >= 2), route_subsets, horizons)
    def test_inexact_quotient(self, mutant, routes, horizon):
        """A quotient with a remainder raises the route's ConsistencyError
        inside its helper: from m = 2 on, the divisor of inner value m is at
        least 2, so the dividend plus one leaves a remainder.  The r-Stirling
        route divides nothing, so it never raises, and the convolution takes
        the ints the helpers made."""
        route, n, m = mutant
        context = ROW_FUNCTIONS[route]
        exact = closed_forms._exact_quotients

        def inexact_dividend(row, nums, dens, where):
            nums = list(nums)
            if (row, where) == (n, context):
                nums[m] += 1
            return exact(row, nums, dens, where)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closed_forms, "_exact_quotients", inexact_dividend)
            got = outcome(verify.verify_routes, TABLE50, routes, horizon)
            want = outcome(ref_verify_routes, TABLE50, routes, horizon)
        assert got == want
        if route in routes and n <= horizon and route != "rstirling":
            assert got[0] == "ConsistencyError"
            assert got[1].startswith(f"{context}({n})[{m}]: non-integer result ")
        else:
            assert got == []


def ref_verify_identities(table, n_max):
    """The loop verify_identities ran before it shared the routes' pass,
    naming only the first inverted value of a row that differs."""
    failures = []
    for n in range(1, min(n_max, table.n_max) + 1):
        alt = triangle.alternating_sum(n, table)
        want = triangle.double_factorial(2 * n - 3)
        if alt != want:
            failures.append(CheckFailure(n, None, "identity:alternating_sum",
                                         f"sum {alt} != (2n-3)!! = {want}"))
        directs = closed_forms.rstirling_values(n)
        stirlings = closed_forms.rstirling_from_beta_row(n, table)
        for m, (got, direct) in enumerate(zip(stirlings, directs)):
            if got != direct:
                failures.append(CheckFailure(
                    n, m, "identity:inversion",
                    f"inverted value {got} != direct r-Stirling {direct}"))
                break
    return failures


class TestIdentitiesShareTheRoutePass:
    """``run_verification`` checks the identities in the routes' pass over
    the rows; it gives the failures of running the three stages apart."""

    @staticmethod
    def apart(table, routes, horizon):
        failures = (ref_verify_routes(table, routes, horizon)
                    + ref_verify_properties(table, min(horizon, table.n_max))
                    + ref_verify_identities(table, horizon))
        return sorted(failures, key=CheckFailure.sort_key)

    @settings(max_examples=40, deadline=None)
    @given(changed_tables(TABLE50), route_subsets, horizons)
    def test_changed_entry(self, table, routes, horizon):
        assert verify.verify_identities(table, horizon) == ref_verify_identities(
            table, horizon)
        # the inversion is triangular: one changed entry (n, k) moves every
        # inverted value from m = k on, and is named once, at (n, k)
        changed = [(n, k) for n in range(1, min(horizon, table.n_max) + 1)
                   for k in range(n) if table.rows[n][k] != TABLE50.rows[n][k]]
        assert [(f.n, f.k) for f in verify.verify_identities(table, horizon)
                if f.check == "identity:inversion"] == changed
        assert run_verification(table, routes, horizon) == self.apart(
            table, routes, horizon)

    @settings(max_examples=40, deadline=None)
    @given(inner_mutants().filter(lambda mutant: mutant[0] == "rstirling"),
           route_subsets, horizons)
    def test_direct_value_off_by_one(self, mutant, routes, horizon):
        """A wrong r-Stirling value fails the inversion identity, whose
        message gives both values unsigned, and the ``rstirling`` route."""
        _, n, m = mutant
        values_of = closed_forms.rstirling_values

        def off_by_one(row):
            values = values_of(row)
            if row == n:
                values[m] += 1
            return values

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closed_forms, "rstirling_values", off_by_one)
            got = run_verification(TABLE50, routes, horizon)
            assert verify.verify_identities(TABLE50, horizon) == ref_verify_identities(
                TABLE50, horizon)
            assert got == self.apart(TABLE50, routes, horizon)
        checks = {f.check for f in got}
        assert ("identity:inversion" in checks) == (n <= horizon)
        assert ("route:rstirling" in checks) == (n <= horizon and "rstirling" in routes)


class TestCarlitzSums:
    def test_identity_holds_to_kappa_60(self):
        assert verify_carlitz_sums(60) == []

    def test_negative_kappa_is_a_domain_error(self):
        with pytest.raises(ValueError, match="kappa_max must be nonnegative"):
            verify_carlitz_sums(-1)

    def test_a_lambda_dependent_sum_is_reported(self, monkeypatch):
        """At kappa = 5 the sum gains lam (lam-1) ... (lam-4), which vanishes
        at every lambda checked but the last."""
        row_of = closed_forms.carlitz_row

        def mutant(kappa, lam):
            row = row_of(kappa, lam)
            if kappa == 5:
                row = (row[0] + math.prod(lam - i for i in range(5)),) + row[1:]
            return row

        monkeypatch.setattr(closed_forms, "carlitz_row", mutant)
        assert verify_carlitz_sums(8) == [CheckFailure(
            5, None, "identity:carlitz_row_sum", "sum 1065 at lambda=5 != (2k-1)!! = 945")]


def reference_table_file(path, routes=ROUTE_NAMES, n_max=None):
    """What ``verify --table`` ran before it read the file's text: the whole
    file converted by ``load_table``, then ``run_verification``."""
    table = load_table(path)
    horizon = table.n_max if n_max is None else n_max
    return table.n_max, run_verification(table, routes, horizon)


def cli_outcome(argv):
    """Exit code, stdout and stderr of ``wderiv`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_verify_matches_reference(path, *options):
    argv = ["verify", "--table", str(path), *options]
    got = cli_outcome(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "verify_table_file", reference_table_file)
        want = cli_outcome(argv)
    assert got == want


TABLE60 = build_table(60)
TOO_LONG = "9" * 5000  # past the default int-string limit of 4300 digits


def spelled(value, kind):
    """The file text of an entry whose true value is ``value``, after an edit."""
    return {"bump": str(value + 1), "drop": str(value - 1), "zero": "0",
            "negative": str(-value), "minus_zero": "-0", "padded": "00" + str(value),
            "too_long": TOO_LONG}[kind]


def table_text(rows, fmt):
    """``rows`` (row 1 first, entries as strings) written as ``table`` writes them."""
    if fmt == "json":
        return json.dumps({"n_max": len(rows), "rows": rows}, separators=(",", ":")) + "\n"
    return "n,k,beta\n" + "".join(f"{n},{k},{b}\n" for n, row in enumerate(rows, 1)
                                   for k, b in enumerate(row))


@st.composite
def edited_table60(draw):
    """The rows of build_table(60) as text, with up to three entries edited."""
    rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
    kinds = st.sampled_from(["bump", "drop", "zero", "negative", "minus_zero",
                             "padded", "too_long"])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=60))
        k = draw(st.integers(min_value=0, max_value=n - 1))
        rows[n - 1][k] = spelled(TABLE60.rows[n][k], draw(kinds))
    return rows


TABLE8_JSON = table_to_json(build_table(8))
TABLE8_ROWS = [[str(b) for b in row] for row in build_table(8).rows[1:]]

# files next to what ``table`` writes: each one either leaves the byte match
# for the strict reader or differs from the written rows in one row only
CANONICAL_CORNERS = {
    "pretty_printed": json.dumps({"n_max": 8, "rows": TABLE8_ROWS}, indent=1) + "\n",
    "other_key": TABLE8_JSON.replace('"rows"', '"ROWS"'),
    "reversed_keys": json.dumps({"rows": TABLE8_ROWS, "n_max": 8},
                                separators=(",", ":")) + "\n",
    "escaped_entry": TABLE8_JSON.replace('["9","8","2"]', '["9","\\u0038","2"]'),
    "escaped_first_row": TABLE8_JSON.replace('[["1"]', '[["\\u0031"]'),
    "form_feed_trailer": TABLE8_JSON.replace("]}\n", "]}\x0c"),
    "letter_trailer": TABLE8_JSON.replace("]}\n", "]}x"),
    "no_final_newline": TABLE8_JSON.rstrip("\n"),
    "n_max_one_above": TABLE8_JSON.replace('"n_max":8', '"n_max":9'),
    "n_max_one_below": TABLE8_JSON.replace('"n_max":8', '"n_max":7'),
    "n_max_leading_zero": TABLE8_JSON.replace('"n_max":8', '"n_max":08'),
    "n_max_zero": '{"n_max":0,"rows":[["1"]]}\n',
    "duplicate_n_max": TABLE8_JSON.replace("]}\n", '],"n_max":8}\n'),
    "bracket_in_entry": TABLE8_JSON.replace('["2","1"]', '["2]","1"]'),
    "int_entry": TABLE8_JSON.replace('["2","1"]', '["2",1]'),
    "space_in_row": TABLE8_JSON.replace('["2","1"]', '[ "2","1"]'),
    "space_between_rows": TABLE8_JSON.replace(',["2","1"]', ', ["2","1"]'),
    "semicolon_between_rows": TABLE8_JSON.replace(',["2","1"]', ';["2","1"]'),
    "no_rows": '{"n_max":0,"rows":[]}\n',
    "short_row": TABLE8_JSON.replace('["9","8","2"]', '["9","8"]'),
    "bumped_last_row": TABLE8_JSON.replace('"5040"]', '"5041"]'),
}

# every file of TestStrictParsing and TestSniffAndLoad in tests/test_tableio.py
PARSER_INPUTS = {
    **{f"bad_json_{name}": text for name, text in BAD_JSON_TABLES.items()},
    **{f"bad_csv_{name}": text for name, text in BAD_CSV_TABLES.items()},
    **{f"edge_{name}": text for name, text in LOAD_EDGES.items()},
    **{f"canonical_{name}": text for name, text in CANONICAL_CORNERS.items()},
    "negative_json": '{"n_max":2,"rows":[["1"],["-2","1"]]}',
    "negative_csv": "n,k,beta\n1,0,-1\n",
    "table8_csv": csv_text(build_table(8)),
    "table8_json": TABLE8_JSON,
}


class TestTableFileMatchesLoadThenVerify:
    """``verify --table`` reads the file's text once and converts only the
    rows its horizon reads; exit code, stdout and stderr stay those of
    ``load_table`` followed by ``run_verification``."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=edited_table60(), fmt=st.sampled_from(["csv", "json"]),
           routes=route_subsets, n_max=st.sampled_from([None, *range(1, 21), 65]),
           out=st.sampled_from(["text", "json"]))
    def test_edited_table60(self, tmp_path, rows, fmt, routes, n_max, out):
        path = tmp_path / f"t60.{fmt}"
        path.write_text(table_text(rows, fmt), encoding="ascii")
        options = ["--format", out, "--routes", ",".join(routes)]
        assert_verify_matches_reference(
            path, *options, *([] if n_max is None else ["--n-max", str(n_max)]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_max", [None, 5])
    def test_every_kind_of_edit_at_once(self, tmp_path, fmt, n_max):
        rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
        for (n, k), kind in {(3, 1): "bump", (4, 0): "padded", (9, 2): "zero",
                             (20, 5): "negative", (33, 0): "minus_zero",
                             (41, 40): "drop", (60, 59): "padded"}.items():
            rows[n - 1][k] = spelled(TABLE60.rows[n][k], kind)
        path = tmp_path / f"t60.{fmt}"
        path.write_text(table_text(rows, fmt), encoding="ascii")
        options = [] if n_max is None else ["--n-max", str(n_max)]
        assert_verify_matches_reference(path, *options)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_entry_past_the_digit_limit_beyond_the_horizon(self, tmp_path, fmt):
        rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
        rows[49][3] = TOO_LONG
        path = tmp_path / f"t60.{fmt}"
        path.write_text(table_text(rows, fmt), encoding="ascii")
        with pytest.raises(ValueError) as cpython:
            int(TOO_LONG)
        assert cli_outcome(["verify", "--table", str(path), "--n-max", "5"]) == (
            2, "", f"error: {cpython.value}\n")
        assert_verify_matches_reference(path, "--n-max", "5")

    @pytest.mark.parametrize("name", sorted(PARSER_INPUTS))
    @pytest.mark.parametrize("n_max", [None, 1])
    def test_parser_inputs(self, tmp_path, name, n_max):
        path = tmp_path / "table"
        path.write_bytes(PARSER_INPUTS[name].encode("ascii"))
        assert_verify_matches_reference(path, *([] if n_max is None else ["--n-max", "1"]))

    @pytest.mark.parametrize("n_max", [None, 1])
    def test_written_row_past_the_digit_limit(self, tmp_path, n_max):
        """Row 256 of a written table holds a 642-digit entry; at the smallest
        int-string limit, 640 digits, the strict reader refuses it."""
        path = tmp_path / "t256.json"
        with path.open("w", encoding="ascii") as fh:
            fh.writelines(tableio.built_table_chunks(256, "json"))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli_outcome(["verify", "--table", str(path), "--n-max", "1"])[0] == 2
            assert_verify_matches_reference(path, *([] if n_max is None else ["--n-max", "1"]))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text", ["n,k,beta\n1,0,\u00e91\n",
                                      '{"n_max":1,"rows":[["\u00e9"]]}'])
    def test_non_ascii_inputs(self, tmp_path, text):
        path = tmp_path / "table"
        path.write_bytes(text.encode("utf-8"))
        assert_verify_matches_reference(path)


class TestWrittenLayout:
    """A JSON file laid out as ``table`` writes it is matched byte for byte
    with the writer's rows; any other file goes through the strict reader."""

    @staticmethod
    def read_calls(monkeypatch):
        calls = []
        read = tableio.read_table_rows
        monkeypatch.setattr(tableio, "read_table_rows",
                            lambda path: calls.append(path) or read(path))
        return calls

    @pytest.mark.parametrize("bumped", [False, True])
    def test_written_file_skips_the_strict_reader(self, tmp_path, monkeypatch, bumped):
        rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
        if bumped:
            rows[40][7] = spelled(TABLE60.rows[41][7], "bump")
        path = tmp_path / "t60.json"
        path.write_text(table_text(rows, "json"), encoding="ascii")
        want = reference_table_file(path, ROUTE_NAMES, 5)
        monkeypatch.setattr(tableio, "read_table_rows", lambda path: 1 / 0)
        assert verify.verify_table_file(str(path), ROUTE_NAMES, 5) == want
        assert bool(want[1]) == bumped

    def test_pretty_printed_file_is_read_strictly(self, tmp_path, monkeypatch):
        rows = [[str(b) for b in row] for row in TABLE60.rows[1:]]
        path = tmp_path / "t60.json"
        path.write_text(json.dumps({"n_max": 60, "rows": rows}, indent=1), encoding="ascii")
        calls = self.read_calls(monkeypatch)
        assert verify.verify_table_file(str(path), ROUTE_NAMES, 5) == (60, [])
        assert calls == [str(path)]

    def test_without_the_recurrence_the_file_is_read_strictly(self, tmp_path, monkeypatch):
        path = tmp_path / "t60.json"
        path.write_text(table_to_json(TABLE60), encoding="ascii")
        calls = self.read_calls(monkeypatch)
        assert verify.verify_table_file(str(path), ("explicit",), 5) == (60, [])
        assert calls == [str(path)]

    def test_peak_memory_stays_below_half_the_file_size(self, tmp_path):
        path = tmp_path / "t150.json"
        with path.open("w", encoding="ascii") as fh:
            fh.writelines(tableio.built_table_chunks(150, "json"))
        tracemalloc.start()
        try:
            assert verify.verify_table_file(str(path), ROUTE_NAMES, 5) == (150, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size

    def test_strict_reader_holds_no_row_equal_in_value(self, tmp_path):
        # every entry's text differs from the recurrence's, its value does not
        path = tmp_path / "t150.csv"
        path.write_text("n,k,beta\n" + "".join(
            f"{n},{k},0{b}\n" for n in range(1, 151)
            for k, b in enumerate(build_table(150).rows[n])), encoding="ascii")
        tracemalloc.start()
        try:
            assert verify.verify_table_file(str(path), ROUTE_NAMES, 5) == (150, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size

    def test_byte_matcher_holds_no_row_equal_in_value(self, tmp_path, monkeypatch):
        # the writer's layout with every entry zero-padded: the bytes of every
        # row differ from the writer's, the values of none
        rows = [["0" + str(b) for b in row] for row in build_table(150).rows[1:]]
        path = tmp_path / "t150.json"
        path.write_text(table_text(rows, "json"), encoding="ascii")
        monkeypatch.setattr(tableio, "read_table_rows", lambda path: 1 / 0)
        tracemalloc.start()
        try:
            assert verify.verify_table_file(str(path), ROUTE_NAMES, 5) == (150, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size


def test_route_failures_decide_differing_strings_by_value():
    differing = {1: (("-0", "007", "12"), ("0", "7", "13")), 2: ((5, 6), (5, 7))}
    assert verify._route_failures("recurrence", differing) == [
        CheckFailure(1, 2, "route:recurrence", "table has 12, recurrence gives 13"),
        CheckFailure(2, 1, "route:recurrence", "table has 6, recurrence gives 7"),
    ]
