"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with -s or on
failure).  Exact-layer criteria are bit-exact integer comparisons; the
numeric criteria use the tolerances fixed below, nothing is calibrated at
run time.
"""
import json
import math
import time
from fractions import Fraction

import pytest

from wderiv import (
    MACHINE_EPS,
    ROUTE_ROWS,
    build_table,
    carlitz_row,
    check_lemma1,
    check_ratio_bound,
    double_factorial,
    factorial_identity,
    is_log_concave,
    is_log_concave_weighted,
    is_positive,
    is_unimodal,
    lambert_w,
    log_grid,
    pn_series_eval,
    poly_eval_exact,
    rstirling_from_beta_row,
    rstirling_shifted,
    table_to_json,
    w_derivative,
    w_derivative_fd,
    w_derivative_taylor,
)
from wderiv.cli import main as cli_main
from conftest import GOLDEN_ROWS


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_golden_rows():
    t0 = time.perf_counter()
    table = build_table(5)
    elapsed = time.perf_counter() - t0
    ok = all(table.rows[n] == GOLDEN_ROWS[n] for n in range(1, 6))
    ok = ok and elapsed < 1.0
    _report(1, ok, f"rows 1..5 exact, built in {elapsed:.4f}s")


def test_criterion_2_five_route_agreement():
    t0 = time.perf_counter()
    table = build_table(40)
    mismatches = 0
    for n in range(1, 41):
        for row_of in ROUTE_ROWS.values():
            mismatches += sum(
                got != want
                for got, want in zip(row_of(n), table.rows[n], strict=True))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(2, ok, f"820 entries x 5 routes bit-exact in {elapsed:.2f}s")


def test_criterion_3_property_suite_200():
    t0 = time.perf_counter()
    table = build_table(200)
    violations = 0
    for n in range(1, 201):
        row = table.rows[n]
        if not is_positive(row).holds:
            violations += 1
            continue
        if not is_log_concave(row).holds:
            violations += 1
        if not is_log_concave_weighted(row).holds:
            violations += 1
        if not is_unimodal(row).holds:
            violations += 1
        if n >= 3:
            if not check_ratio_bound(row).holds:
                violations += 1
            if not check_lemma1(row).holds:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(3, ok, f"200 rows, zero violations, {elapsed:.2f}s")


def test_criterion_4_identities():
    table = build_table(60)
    bad = []
    for n in range(1, 61):
        if poly_eval_exact(n, table, -1) * (-1) ** (n - 1) != double_factorial(2 * n - 3):
            bad.append((n, "alternating"))
        left, right = factorial_identity(n)
        if left != right:
            bad.append((n, "factorial"))
        stirlings = rstirling_from_beta_row(table.rows[n])
        if any(s != rstirling_shifted(n - 1 + m, m, n)
               for m, s in enumerate(stirlings)):
            bad.append((n, "inversion"))
        for k in range(n):
            back = sum((-1) ** m * math.comb(2 * n - 1, k - m) * stirlings[m]
                       for m in range(k + 1))
            if back != table.rows[n][k]:
                bad.append((n, k, "roundtrip"))
    for kappa in range(31):
        want = double_factorial(2 * kappa - 1)
        for lam in (kappa + 1, 0, 7):
            if sum(carlitz_row(kappa, lam)) != want:
                bad.append((kappa, lam, "carlitz"))
    _report(4, not bad, f"n<=60 identities + kappa<=30 row sums, failures={bad}")


def test_criterion_5_round_trip_residual():
    grid = log_grid(1e-6, 1e6, 100)
    worst = 0.0
    for x in grid:
        ev = lambert_w(x)
        bound = 4.0 * MACHINE_EPS * max(x, 1.0)
        worst = max(worst, abs(ev.residual) / bound)
        assert abs(ev.residual) <= bound, f"x={x!r}"
    _report(5, worst <= 1.0, f"100-point grid, worst residual {worst:.3f} of bound")


def test_criterion_6_derivative_cross_checks(table40):
    worst_taylor = 0.0
    for n in range(1, 9):
        for x in (1e-4, 1e-3, 1e-2, 5e-2, 1e-1):
            closed = w_derivative(n, x, table40).value
            taylor = w_derivative_taylor(n, x, 1e-12).value
            worst_taylor = max(worst_taylor, abs(closed - taylor) / abs(closed))
    worst_fd = 0.0
    for n in range(1, 6):
        for x in (0.1, 0.5, 1.0, math.e, 5.0, 10.0):
            closed = w_derivative(n, x, table40).value
            fd = w_derivative_fd(n, x).value
            worst_fd = max(worst_fd, abs(closed - fd) / abs(closed))
    ok = worst_taylor < 1e-8 and worst_fd < 1e-4
    _report(6, ok, f"taylor worst {worst_taylor:.2e} (<1e-8), "
                   f"fd worst {worst_fd:.2e} (<1e-4)")


def test_criterion_7_bernstein_scan(table40):
    """The sign law (-1)^(n-1) W^(n)(x) > 0 on each w_derivative value itself."""
    t0 = time.perf_counter()
    violations = [(n, x) for n in range(1, 13) for x in log_grid(0.01, 10, 50)
                  if not (-1) ** (n - 1) * w_derivative(n, x, table40).value > 0.0]
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 5.0
    _report(7, ok, f"n<=12 on 50 points, violations={len(violations)}, "
                   f"{elapsed:.2f}s")


def test_criterion_8_series_evaluation(table40):
    worst = 0.0
    for n in range(1, 11):
        for w in (-0.1, 0.0, 0.05, 0.1, 0.2):
            est = pn_series_eval(n, w, 1e-10)
            exact = poly_eval_exact(n, table40, Fraction(w))
            worst = max(worst, float(abs((Fraction(est) - exact) / exact)))
    _report(8, worst < 1e-8, f"n<=10, five w values, worst rel err {worst:.2e}")


def test_criterion_9_fault_injection(tmp_path, capsys):
    table = build_table(7)
    caught = 0
    total = 0
    uncaught = []
    for n in range(1, 8):
        for k in range(n):
            rows = [[str(b) for b in row] for row in table.rows[1:]]
            rows[n - 1][k] = str(int(rows[n - 1][k]) + 1)
            path = tmp_path / f"bad_{n}_{k}.json"
            path.write_text(json.dumps({"n_max": 7, "rows": rows}),
                            encoding="ascii")
            code = cli_main(["verify", "--table", str(path)])
            out = capsys.readouterr().out
            total += 1
            if code == 1 and f"n={n} k={k}" in out:
                caught += 1
            else:
                uncaught.append((n, k, code))
    _report(9, caught == total,
            f"{caught}/{total} single-entry corruptions caught, "
            f"uncaught={uncaught}")


def test_clean_verify_via_cli(tmp_path, capsys):
    """Companion to criterion 9: the uncorrupted table passes through the CLI."""
    path = tmp_path / "good.json"
    path.write_text(table_to_json(build_table(7)), encoding="ascii")
    code = cli_main(["verify", "--table", str(path)])
    capsys.readouterr()
    assert code == 0
