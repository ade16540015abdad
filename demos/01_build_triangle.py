"""Build the coefficient triangle and look at its structure.

The n-th derivative of the Lambert W function is

    d^n W / dx^n = exp(-n W) p_n(W) / (1 + W)^(2n - 1)

and p_n(w) = (-1)^(n-1) sum_k beta(n, k) w^k with positive integer
coefficients beta(n, k).  This script builds the triangle row by row and
shows the closed forms for its boundary entries.
"""
import sys

from wderiv import boundary_value, build_table

N_MAX = 10

table = build_table(N_MAX)

print(f"beta(n, k) for 1 <= n <= {N_MAX}:\n")
for n in range(1, N_MAX + 1):
    print(f"  n={n:2d}: {list(table.rows[n])}")

print("\nthe polynomials themselves (signs restored):\n")
for n in range(1, 6):
    sign = -1 if n % 2 == 0 else 1
    terms = " + ".join(f"({sign * b})w^{k}" if k else f"({sign * b})"
                       for k, b in enumerate(table.rows[n]))
    print(f"  p_{n}(w) = {terms}")

print("\nboundary entries have closed forms:")
print("  beta(n, 0)   = n^(n-1)")
print("  beta(n, 1)   = 3n^n - (n+1)^n - n^(n-1)")
print("  beta(n, n-1) = (n-1)!")
print("  beta(n, n-2) = (2n-2)(n-1)!\n")
verdicts = []
for n in (5, 8, 10):
    row = table.rows[n]
    checks = [
        ("first", row[0]),
        ("second", row[1]),
        ("second_last", row[n - 2]),
        ("last", row[n - 1]),
    ]
    status = all(boundary_value(n, kind) == value for kind, value in checks)
    verdicts.append(status)
    print(f"  n={n:2d}: closed forms match the row: {status}")

print("\nentries grow fast; beta(n, 0) = n^(n-1) alone needs")
for n in (16, 64, 200):
    bits = (n ** (n - 1)).bit_length()
    print(f"  {bits:5d} bits at n = {n}")
print("so the whole triangle is kept in exact integers.")
sys.exit(0 if all(verdicts) else 1)
