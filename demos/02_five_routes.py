"""Compute the same coefficients by the recurrence and five closed forms.

Besides the row recurrence there are five closed-form routes: an explicit
double sum, shifted r-Stirling numbers, Bernoulli polynomials of negative
order, iterated forward differences, and a triangular recurrence of integer
polynomials evaluated at an integer point.  Only four of these are
independent computations: the recurrence, the forward-difference kernel sum
with its power sums (the explicit double sum, Bernoulli and forward
differences normalise the same row of them, so their agreement checks the
normalisation identities, not the power sum itself), the kernel sum with
its r-Stirling inner values made by their own triangle recurrence, and the
Carlitz-style triangle.  All routes must agree bit for bit.
"""
import sys
import time

from wderiv import ROUTE_ROWS, build_table

N = 12

table = build_table(N)
print(f"row {N} by the recurrence:\n  {list(table.rows[N])}\n")

verdicts = []
for name, row_of in ROUTE_ROWS.items():
    t0 = time.perf_counter()
    row = row_of(N)
    dt = (time.perf_counter() - t0) * 1e3
    match = row == table.rows[N]
    verdicts.append(match)
    print(f"  {name:10s}: match={match}  ({dt:6.2f} ms)")

print("\nchecking every row up to n = 20 against every route...")
table = build_table(20)
mismatches = 0
for n in range(1, 21):
    for row_of in ROUTE_ROWS.values():
        mismatches += sum(got != want for got, want in zip(row_of(n), table.rows[n]))
print(f"entries checked: {20 * 21 // 2}, route values compared: "
      f"{len(ROUTE_ROWS) * 20 * 21 // 2}, mismatches: {mismatches}")
sys.exit(0 if all(verdicts) and mismatches == 0 else 1)
