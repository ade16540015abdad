"""Compute the same coefficients by the recurrence and five closed forms.

Besides the row recurrence there are five closed-form routes: an explicit
double sum, shifted r-Stirling numbers, Bernoulli polynomials of negative
order, iterated forward differences, and a triangular recurrence of integer
polynomials evaluated at an integer point.  Only three of these are
independent computations: the recurrence, the forward-difference kernel sum
and the Carlitz-style triangle.  The first four closed forms are that one
kernel sum in four normalisations, so their agreement checks the
normalisation identities, not the kernel sum itself.  All routes must agree
bit for bit.
"""
import time

from wderiv import ROUTE_ROWS, build_table

N = 12

table = build_table(N)
print(f"row {N} by the recurrence:\n  {list(table.rows[N])}\n")

for name, row_of in ROUTE_ROWS.items():
    t0 = time.perf_counter()
    row = row_of(N)
    dt = (time.perf_counter() - t0) * 1e3
    match = row == table.rows[N]
    print(f"  {name:10s}: match={match}  ({dt:6.2f} ms)")

print("\nchecking every row up to n = 20 against every route...")
table = build_table(20)
mismatches = 0
for n in range(1, 21):
    for row_of in ROUTE_ROWS.values():
        mismatches += sum(got != want for got, want in zip(row_of(n), table.rows[n]))
print(f"entries checked: {20 * 21 // 2}, route values compared: "
      f"{len(ROUTE_ROWS) * 20 * 21 // 2}, mismatches: {mismatches}")
