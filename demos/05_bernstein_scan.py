"""W is a Bernstein function: the sign law from exact row positivity.

A nonnegative function whose derivative is completely monotonic is called
a Bernstein function; complete monotonicity of W' means the derivatives of
W alternate in sign: (-1)^(n-1) d^nW/dx^n > 0.  For x >= 0, W(x) >= 0 and

    (-1)^(n-1) W^(n)(x) = exp(-n W) sum_k beta(n, k) W^k / (1 + W)^(2n-1),

so exact positivity of rows 1..N proves the law for every n <= N on all of
[0, inf).  The script checks that positivity, prints binary64 samples of
the derivatives beside it, and exits 1 if a row is not positive or W' is
not strictly decreasing along the grid.
"""
import sys

from wderiv import build_table, is_positive, log_grid, w_derivative

N_MAX = 12
GRID = log_grid(0.01, 10.0, 50)

table = build_table(N_MAX)
positive = all(is_positive(table.rows[n]).holds for n in range(1, N_MAX + 1))

print(f"rows 1..{N_MAX} of build_table({N_MAX}) are positive, exactly: {positive}")
print(f"  hence (-1)^(n-1) W^(n)(x) > 0 for n <= {N_MAX} on [0, inf)\n")

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
sys.exit(0 if positive and decreasing else 1)
