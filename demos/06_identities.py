"""Identities tying the routes together, all checked in exact arithmetic.

* the alternating row sum equals the double factorial (2n-3)!!, i.e.
  p_n(-1) = (-1)^(n-1) (2n-3)!!, so w = -1 is never a zero of p_n;
* summing the last-entry closed form gives an r-Stirling identity whose
  value is (n-1)!;
* the r-Stirling form of a row can be inverted: the n r-Stirling numbers
  behind row n are recovered from the row by one binomial convolution, the
  same triangular sum the routes use, with the kernel C(2n-2+j, 2n-2);
* the rows of the Carlitz-style triangle B(kappa, j, lam) sum to
  (2 kappa - 1)!! no matter what lam is.
"""
from wderiv import (
    alternating_sum,
    build_table,
    carlitz_row,
    double_factorial,
    factorial_identity,
    rstirling_from_beta_row,
    rstirling_shifted,
)

table = build_table(30)

print("alternating sums vs (2n-3)!!:")
for n in (1, 2, 5, 10, 20, 30):
    alt = alternating_sum(n, table)
    print(f"  n={n:2d}: {alt} == {double_factorial(2 * n - 3)}: "
          f"{alt == double_factorial(2 * n - 3)}")

print("\nfactorial identity (left sum vs (n-1)!):")
for n in (1, 5, 8, 12):
    left, right = factorial_identity(n)
    print(f"  n={n:2d}: {left} == {right}: {left == right}")

print("\ninversion: row -> r-Stirling numbers -> compare direct:")
for n in (3, 7, 15):
    inverted = rstirling_from_beta_row(n, table)
    direct = [rstirling_shifted(n - 1 + m, m, n) for m in range(n)]
    print(f"  n={n:2d}: {inverted[:4]} ... all {n} equal the direct values: "
          f"{inverted == direct}")

print("\nCarlitz row sums are independent of lambda:")
for kappa in (0, 1, 3, 10):
    sums = {lam: sum(carlitz_row(kappa, lam)) for lam in (kappa + 1, 0, 7, -4)}
    expected = double_factorial(2 * kappa - 1)
    ok = all(value == expected for value in sums.values())
    print(f"  kappa={kappa:2d}: sums {sorted(set(sums.values()))} "
          f"== (2k-1)!! = {expected}: {ok}")
