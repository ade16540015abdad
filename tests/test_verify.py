"""Helpers of the verification battery not reached through the CLI tests."""
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_tableio import BAD_CSV_TABLES, BAD_JSON_TABLES, LOAD_EDGES
from wderiv import (CoefficientTable, ROUTE_NAMES, build_table, load_table, properties,
                    run_verification, table_to_csv, table_to_json, triangle, verify)
from wderiv.cli import main
from wderiv.verify import CheckFailure, lambda_values, verify_properties

GOLDEN = Path(__file__).parent / "golden"


def ref_lambda_values(kappa, samples):
    """The pool-then-odd-numbers loop that lambda_values replaced."""
    pool = [kappa + 1, 0, 7, 11, 13, -3, 17, 19, 23, -5]
    out = []
    for lam in pool:
        if lam not in out:
            out.append(lam)
        if len(out) == samples:
            return out
    base = 29
    while len(out) < samples:
        if base not in out:
            out.append(base)
        base += 2
    return out


def test_lambda_values_match_the_reference_loop():
    for kappa in range(80):
        for samples in range(1, 60):
            assert lambda_values(kappa, samples) == ref_lambda_values(kappa, samples), (
                kappa, samples)


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


@st.composite
def changed_tables(draw):
    """build_table(40) with one entry moved by +-1 or scaled up."""
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    old = TABLE40.rows[n][k]
    new = draw(st.one_of(st.sampled_from([old + 1, old - 1]),
                         st.integers(min_value=2, max_value=10**6).map(old.__mul__)))
    rows = list(TABLE40.rows)
    rows[n] = rows[n][:k] + (new,) + rows[n][k + 1:]
    return CoefficientTable(n_max=40, rows=tuple(rows))


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
        for name in ("is_log_concave", "is_unimodal"):
            monkeypatch.setattr(properties, name,
                                lambda row, name=name: calls.append(name))
        assert verify_properties(build_table(200)) == []
        assert calls == []


def test_default_verify_builds_the_table_once(monkeypatch, capsys):
    calls = []
    build = triangle.build_table
    monkeypatch.setattr(triangle, "build_table",
                        lambda n_max: calls.append(n_max) or build(n_max))
    assert main(["verify"]) == 0
    assert calls == [200]


def reference_table_file(path, routes=ROUTE_NAMES, n_max=None, lambda_samples=3):
    """What ``verify --table`` ran before it read the file's text: the whole
    file converted by ``load_table``, then ``run_verification``."""
    table = load_table(path)
    horizon = table.n_max if n_max is None else n_max
    return table.n_max, run_verification(table, routes, horizon, horizon, horizon,
                                         lambda_samples)


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


# every file of TestStrictParsing and TestSniffAndLoad in tests/test_tableio.py
PARSER_INPUTS = {
    **{f"bad_json_{name}": text for name, text in BAD_JSON_TABLES.items()},
    **{f"bad_csv_{name}": text for name, text in BAD_CSV_TABLES.items()},
    **{f"edge_{name}": text for name, text in LOAD_EDGES.items()},
    "negative_json": '{"n_max":2,"rows":[["1"],["-2","1"]]}',
    "negative_csv": "n,k,beta\n1,0,-1\n",
    "table8_csv": table_to_csv(build_table(8)),
    "table8_json": table_to_json(build_table(8)),
}


class TestTableFileMatchesLoadThenVerify:
    """``verify --table`` reads the file's text once and converts only the
    rows its horizon reads; exit code, stdout and stderr stay those of
    ``load_table`` followed by ``run_verification``."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=edited_table60(), fmt=st.sampled_from(["csv", "json"]),
           n_max=st.sampled_from([*range(1, 21), 65]),
           out=st.sampled_from(["text", "json"]))
    def test_edited_table60(self, tmp_path, rows, fmt, n_max, out):
        path = tmp_path / f"t60.{fmt}"
        path.write_text(table_text(rows, fmt), encoding="ascii")
        options = ["--format", out, "--n-max", str(n_max)]
        assert_verify_matches_reference(path, *options)

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

    @pytest.mark.parametrize("text", ["n,k,beta\n1,0,\u00e91\n",
                                      '{"n_max":1,"rows":[["\u00e9"]]}'])
    def test_non_ascii_inputs(self, tmp_path, text):
        path = tmp_path / "table"
        path.write_bytes(text.encode("utf-8"))
        assert_verify_matches_reference(path)


def test_route_failures_decide_differing_strings_by_value():
    pairs = [(("-0", "007", "12"), ("0", "7", "13")), ((5, 6), (5, 7))]
    assert verify._route_failures("recurrence", pairs) == [
        CheckFailure(1, 2, "route:recurrence", "table has 12, recurrence gives 13"),
        CheckFailure(2, 1, "route:recurrence", "table has 6, recurrence gives 7"),
    ]
