"""Numeric witness that W is a Bernstein function.

A nonnegative function whose derivative is completely monotonic is called
a Bernstein function; complete monotonicity of W' means the derivatives of
W alternate in sign: (-1)^(n-1) d^nW/dx^n > 0.  That sign law follows from
the positivity of the coefficient triangle, and this scan confirms the
floating-point pipeline reproduces it on a grid.
"""
import sys

from wderiv import bernstein_scan, build_table, log_grid, w_derivative

N_MAX = 12
GRID = log_grid(0.01, 10.0, 50)

table = build_table(N_MAX)
report = bernstein_scan(N_MAX, GRID, table)

print(f"sign scan over n <= {N_MAX} on a {len(GRID)}-point grid "
      f"[{GRID[0]:g}, {GRID[-1]:g}]")
print(f"violations: {len(report.violations)}  ->  holds: {report.holds}\n")

print("sample of the alternating signs at x = 1:")
for n in range(1, N_MAX + 1):
    value = w_derivative(n, 1.0, table).value
    sign = "+" if value > 0 else "-"
    print(f"  n={n:2d}: sign {sign}   d^nW/dx^n = {value:+.6e}")

print("\nW' is also strictly decreasing (first consequence of complete")
print("monotonicity); spot check along the grid:")
values = [w_derivative(1, x, table).value for x in GRID]
decreasing = all(a > b for a, b in zip(values, values[1:]))
print(f"  W'({GRID[0]:g}) = {values[0]:.6f} > ... > W'({GRID[-1]:g}) = "
      f"{values[-1]:.6f}: {decreasing}")
sys.exit(0 if report.holds and decreasing else 1)
