"""Helpers of the verification battery not reached through the CLI tests."""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import CoefficientTable, build_table, load_table, properties, triangle
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
