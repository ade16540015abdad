"""Evaluate W and its derivatives by three routes that check each other.

The closed form uses the exact coefficient table; the series route sums
the Taylor expansion around 0 (valid for |x| < 1/e); the finite-difference
route never sees the table at all, it just differences W numerically.
The demo exits 1 unless, for n = 1..5 at x = 0.05, the series agrees with
the closed form to 1e-12 and the finite differences to 1e-5 (relative).
"""
import math
import sys

from wderiv import (
    build_table,
    lambert_w,
    w_derivative,
    w_derivative_fd,
    w_derivative_taylor,
)

table = build_table(12)

print("W itself (Halley iteration, then the round-trip defect w*e^w - x):\n")
for x in (0.0, 0.5, 1.0, math.e, 100.0, 1e6):
    ev = lambert_w(x)
    print(f"  W({x:<9g}) = {ev.w:.17g}   residual = {ev.residual:+.2e}   "
          f"iterations = {ev.iterations}")

x = 0.05
SERIES_REL_TOL = 1e-12  # the series route sums to rounding level
FD_REL_TOL = 1e-5  # finite differences lose about half the digits
print(f"\nd^nW/dx^n at x = {x} by three routes:\n")
print("   n    closed form           series                finite difference")
series_err = fd_err = 0.0
for n in range(1, 6):
    closed = w_derivative(n, x, table).value
    taylor = w_derivative_taylor(n, x, 1e-12).value
    fd = w_derivative_fd(n, x).value
    series_err = max(series_err, abs(taylor - closed) / abs(closed))
    fd_err = max(fd_err, abs(fd - closed) / abs(closed))
    print(f"  {n:2d}   {closed:+.12e}  {taylor:+.12e}  {fd:+.12e}")

agree = series_err <= SERIES_REL_TOL and fd_err <= FD_REL_TOL
print(f"\nlargest relative difference from the closed form: series "
      f"{series_err:.1e} (bound {SERIES_REL_TOL:g}), finite differences "
      f"{fd_err:.1e} (bound {FD_REL_TOL:g})")
print(f"the three routes agree: {agree}")

print("\nfirst derivative at known points:")
print(f"  W'(e)  = {w_derivative(1, math.e, table).value:.17g}"
      f"   (exactly 1/(2e) = {1 / (2 * math.e):.17g})")
print(f"  W''(e) = {w_derivative(2, math.e, table).value:.17g}"
      f"   (exactly -3/(8e^2) = {-3 / (8 * math.e ** 2):.17g})")
sys.exit(0 if agree else 1)
