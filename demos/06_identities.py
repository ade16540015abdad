"""Identities tying the routes together, all checked in exact arithmetic.

* the alternating row sum equals the double factorial (2n-3)!!, i.e.
  p_n(-1) = (-1)^(n-1) (2n-3)!!, so w = -1 is never a zero of p_n;
* summing the last-entry closed form gives an r-Stirling identity whose
  value is (n-1)!;
* the r-Stirling form of a row can be inverted: the n r-Stirling numbers
  behind row n are recovered from the row by one binomial convolution, the
  same triangular sum the routes use, with the kernel C(2n-2+j, 2n-2);
* the rows of the Carlitz-style triangle B(kappa, j, lam) sum to
  (2 kappa - 1)!! no matter what lam is.  Each entry of row kappa is a
  polynomial of degree <= kappa in lam, so the row sum is too, and
  ``verify_carlitz_sums`` proves the identity from the kappa + 1 points
  lam = 0..kappa.
"""
import sys

from wderiv import (
    alternating_sum,
    build_table,
    double_factorial,
    factorial_identity,
    rstirling_from_beta_row,
    rstirling_shifted,
    verify_carlitz_sums,
)

table = build_table(30)
verdicts = []

print("alternating sums vs (2n-3)!!:")
for n in (1, 2, 5, 10, 20, 30):
    alt = alternating_sum(n, table)
    verdicts.append(alt == double_factorial(2 * n - 3))
    print(f"  n={n:2d}: {alt} == {double_factorial(2 * n - 3)}: {verdicts[-1]}")

print("\nfactorial identity (left sum vs (n-1)!):")
for n in (1, 5, 8, 12):
    left, right = factorial_identity(n)
    verdicts.append(left == right)
    print(f"  n={n:2d}: {left} == {right}: {verdicts[-1]}")

print("\ninversion: row -> r-Stirling numbers -> compare direct:")
for n in (3, 7, 15):
    inverted = rstirling_from_beta_row(n, table)
    direct = [rstirling_shifted(n - 1 + m, m, n) for m in range(n)]
    verdicts.append(inverted == direct)
    print(f"  n={n:2d}: {inverted[:4]} ... all {n} equal the direct values: "
          f"{verdicts[-1]}")

print("\nCarlitz row sums, proved for every lambda from lambda = 0..kappa:")
failures = verify_carlitz_sums(10)
for kappa in (0, 1, 3, 10):
    verdicts.append(all(f.n != kappa for f in failures))
    print(f"  kappa={kappa:2d}: the sum is (2k-1)!! = "
          f"{double_factorial(2 * kappa - 1)} at lambda = 0..{kappa}: {verdicts[-1]}")
sys.exit(0 if all(verdicts) else 1)
