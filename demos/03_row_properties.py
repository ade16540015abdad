"""Structural properties of the coefficient rows, checked exactly.

Each row is positive and log-concave after weighting entry k by k!, which
is checked on the row itself as (k+1) c_{k-1} c_{k+1} <= k c_k^2 (the
weighted inequality divided by (k-1)! k!).  That one fact gives the rest:
the row is log-concave, since (k+1)/k > 1, and therefore unimodal; and the
entries satisfy the binomial inequality c_k c_m >= C(k+m, k) c_0 c_{k+m},
because the ratios a_{k+1}/a_k of a_k = k! c_k do not increase, which gives
a_k a_m >= a_0 a_{k+m}, the inequality multiplied through by k! m!.  The
ratios (k+1) beta(n,k+1) / beta(n,k) also stay below n - 1.  Floats with a
stated error bound screen the log-concavity comparisons, and exact integers
decide every close call, so a pass is a proof for the rows checked.  The
script exits 1 if any row fails a property.
"""
import sys

from wderiv import (
    build_table,
    check_lemma1,
    check_ratio_bound,
    is_log_concave,
    is_log_concave_weighted,
    is_positive,
    is_unimodal,
)

table = build_table(60)

print("row-by-row reports for a few rows:\n")
for n in (3, 7, 20):
    row = table.rows[n]
    print(f"  n={n}:")
    print(f"    positive:            {is_positive(row).holds}")
    print(f"    log-concave:         {is_log_concave(row).holds}")
    print(f"    k!-weighted l.c.:    {is_log_concave_weighted(row).holds}")
    unimodal = is_unimodal(row)
    print(f"    unimodal:            {unimodal.holds} (mode at k={unimodal.mode_index})")
    print(f"    ratio bound:         {check_ratio_bound(row).holds}")
    print(f"    binomial inequality: {check_lemma1(row).holds}")

print("\nmode position drifts right as n grows:")
for n in range(3, 61, 6):
    mode = is_unimodal(table.rows[n]).mode_index
    print(f"  n={n:2d}: mode at k={mode}  " + "#" * mode)

print("\nthe checks do reject bad sequences, with the first offender named:")
bad = [1, 3, 2, 4]
report = is_unimodal(bad)
print(f"  {bad}: unimodal={report.holds}, first_violation={report.first_violation}")
bad = [1, 1, 2]
report = is_log_concave(bad)
print(f"  {bad}: log_concave={report.holds}, first_violation={report.first_violation}")

print(f"\nexhaustive run over all rows n <= 60:")
clean = all(
    is_positive(table.rows[n]).holds
    and is_log_concave(table.rows[n]).holds
    and is_log_concave_weighted(table.rows[n]).holds
    and is_unimodal(table.rows[n]).holds
    and (n < 3 or check_ratio_bound(table.rows[n]).holds)
    and (n < 3 or check_lemma1(table.rows[n]).holds)
    for n in range(1, 61)
)
print(f"  every property holds on every row: {clean}")
sys.exit(0 if clean else 1)
