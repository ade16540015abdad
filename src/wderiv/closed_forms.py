"""Closed-form routes to the triangle rows, and the identities among them.

Three independent computations of beta(n, k) exist in the package:

* the row recurrence (``triangle.build_table``),
* the forward-difference kernel sum

      beta(n, k) = sum_{m=0}^{k} C(2n-1, k-m) (-1)^m Delta^m x^(m+n-1)|_(x=n) / m!,

* a triangular-recurrence family of integer polynomials evaluated at an
  integer point (``beta_carlitz_row``).

The kernel sum has four routes, one per normalisation of its inner values:
the explicit double sum, shifted r-Stirling numbers of the second kind,
Bernoulli polynomials of negative integer order and iterated forward
differences of a power.  Each computes its n inner values once and shares
one binomial convolution, so these four check the normalisation identities,
not the kernel sum itself; the last three normalise one power sum,
Delta^m x^p at x = r.  Every route returns a whole row; the convolution
asserts that each entry is an integer, raising :class:`ConsistencyError`
otherwise.  The inversion ``rstirling_from_beta_row`` runs the same
triangular sum with the kernel of (1-w)^-(2n-1).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import Callable

from .triangle import CoefficientTable

__all__ = [
    "ConsistencyError",
    "ROUTE_ROWS",
    "beta_explicit_row",
    "rstirling_shifted",
    "rstirling_values",
    "beta_rstirling_row",
    "bernoulli_higher",
    "beta_bernoulli_row",
    "forward_diff_power",
    "beta_forward_diff_row",
    "carlitz_row",
    "beta_carlitz_row",
    "rstirling_from_beta_row",
    "factorial_identity",
]


class ConsistencyError(ArithmeticError):
    """An integer-valued sum came out with a denominator != 1 (a bug, not bad input)."""


def _as_integer(total: Fraction, context: str) -> int:
    if total.denominator != 1:
        raise ConsistencyError(f"{context}: non-integer result {total}")
    return total.numerator


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def _triangular(kernel: list[int], values: list[int]) -> list[int]:
    """Entry k is sum_{j<=k} kernel[k-j] values[j], for 0 <= k < len(values)."""
    return [sum(map(mul, kernel[k::-1], values)) for k in range(len(values))]


def _convolve(n: int, inner: list[int | Fraction], context: str) -> tuple[int, ...]:
    """Row n of the kernel sum: entry k is sum_{m<=k} C(2n-1, k-m) inner[m].

    The inner values are brought to one denominator, so the row costs O(n^2)
    integer operations; an entry that is not an integer raises
    :class:`ConsistencyError`.
    """
    inner = [Fraction(v) for v in inner]
    denom = lcm(*(v.denominator for v in inner))
    scaled = [v.numerator * (denom // v.denominator) for v in inner]
    binoms = [comb(2 * n - 1, j) for j in range(len(inner))]
    return tuple(
        _as_integer(Fraction(total, denom), f"{context}({n})[{k}]")
        for k, total in enumerate(_triangular(binoms, scaled))
    )


def _power_diff(m: int, p: int, r: int | Fraction) -> int | Fraction:
    """Delta^m x^p at x = r, sum_q (-1)^(m-q) C(m, q) (q+r)^p, without comb."""
    total, coef = 0, (-1) ** m
    for q in range(m + 1):
        total += coef * (q + r) ** p
        coef = -coef * (m - q) // (q + 1)
    return total


def beta_explicit_row(n: int) -> tuple[int, ...]:
    """Row n by the explicit double sum

        beta(n, k) = sum_{m=0}^{k} (1/m!) C(2n-1, k-m) sum_{q=0}^{m} C(m, q) (-1)^q (q+n)^(m+n-1).
    """
    _check_n(n)
    inner = [
        Fraction(
            sum(comb(m, q) * (-1) ** q * (q + n) ** (m + n - 1) for q in range(m + 1)),
            factorial(m),
        )
        for m in range(n)
    ]
    return _convolve(n, inner, "beta_explicit_row")


def rstirling_shifted(n: int, m: int, r: int) -> int:
    """The shifted r-Stirling number of the second kind {n+r brace m+r}_r.

    Computed from the closed sum (1/m!) Delta^m x^n at x = r.  It counts
    partitions of n+r elements into m+r nonempty blocks with the first r
    elements in distinct blocks; in particular the m = 0 case is r^n.
    """
    if n < 0 or m < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    total = Fraction(_power_diff(m, n, r), factorial(m))
    return _as_integer(total, f"rstirling_shifted({n}, {m}, {r})")


def rstirling_values(n: int) -> list[int]:
    """The n values {2n-1+m brace n+m}_n, 0 <= m < n, behind row n."""
    _check_n(n)
    return [rstirling_shifted(n - 1 + m, m, n) for m in range(n)]


def beta_rstirling_row(n: int) -> tuple[int, ...]:
    """Row n as alternating binomial sums of shifted r-Stirling numbers."""
    inner = [(-1) ** m * s for m, s in enumerate(rstirling_values(n))]
    return _convolve(n, inner, "beta_rstirling_row")


def bernoulli_higher(order: int, m: int, r: int | Fraction) -> Fraction:
    """Bernoulli polynomial of higher order at negative integer order, B_order^(-m)(r).

    Closed sum: order!/(m+order)! * Delta^m x^(m+order) at x = r.
    The m = 0 case reduces to r^order.
    """
    if order < 0 or m < 0:
        raise ValueError("order and m must be nonnegative")
    scale = Fraction(factorial(order), factorial(m + order))
    return scale * _power_diff(m, m + order, r)


def beta_bernoulli_row(n: int) -> tuple[int, ...]:
    """Row n via Bernoulli polynomials of negative order."""
    _check_n(n)
    inner = [
        (-1) ** m * comb(m + n - 1, n - 1) * bernoulli_higher(n - 1, m, n)
        for m in range(n)
    ]
    return _convolve(n, inner, "beta_bernoulli_row")


def forward_diff_power(m: int, n: int) -> int:
    """m-th forward difference of x^(m+n-1) evaluated at x = n.

    Delta^m f(n) = sum_q (-1)^(m-q) C(m, q) f(n+q) with f(x) = x^(m+n-1).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _power_diff(m, m + n - 1, n)


def beta_forward_diff_row(n: int) -> tuple[int, ...]:
    """Row n via iterated forward differences."""
    _check_n(n)
    inner = [
        Fraction((-1) ** m * forward_diff_power(m, n), factorial(m)) for m in range(n)
    ]
    return _convolve(n, inner, "beta_forward_diff_row")


def carlitz_row(kappa: int, lam: int) -> tuple[int, ...]:
    """Row kappa of B(kappa, j, lam), 0 <= j <= kappa, by the three-term recurrence

        B(k, j, lam) = (k + j - lam) B(k-1, j, lam) + (k - j + lam) B(k-1, j-1, lam)

    with B(0, j, lam) = [j == 0], and 0 outside 0 <= j <= kappa.  The j = 0
    column is the rising factorial (1-lam)(2-lam)...(kappa-lam), and the row
    sums to (2*kappa - 1)!! for every lam.  The triangle is rebuilt on every
    call; nothing is cached.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    row: tuple[int, ...] = (1,)
    for kk in range(1, kappa + 1):
        padded = (0,) + row + (0,)
        row = tuple(
            (kk + j - lam) * padded[j + 1] + (kk - j + lam) * padded[j]
            for j in range(kk + 1)
        )
    return row


def beta_carlitz_row(n: int) -> tuple[int, ...]:
    """Row n from beta(n, k) = (-1)^k B(n-1, n-1-k, n)."""
    _check_n(n)
    return tuple(
        -b if k % 2 else b for k, b in enumerate(reversed(carlitz_row(n - 1, n)))
    )


# The closed-form routes by their CLI names, in the order verify runs them.
ROUTE_ROWS: dict[str, Callable[[int], tuple[int, ...]]] = {
    "explicit": beta_explicit_row,
    "rstirling": beta_rstirling_row,
    "bernoulli": beta_bernoulli_row,
    "fdiff": beta_forward_diff_row,
    "carlitz": beta_carlitz_row,
}


def rstirling_from_beta_row(n: int, table: CoefficientTable) -> list[int]:
    """Invert the r-Stirling route: recover {2n-1+m brace n+m}_n, 0 <= m < n.

    The alternating row is a binomial convolution of the r-Stirling sequence
    with the coefficients of (1-w)^(2n-1); multiplying the generating function
    by (1-w)^-(2n-1) inverts it:

        {2n-1+m brace n+m}_n = sum_{k<=m} (-1)^k beta(n, k) C(2n-2+m-k, 2n-2).

    The kernel C(2n-2+j, 2n-2) is built once for the row.
    """
    row = table.row(n)
    kernel = [comb(2 * n - 2 + j, 2 * n - 2) for j in range(n)]
    return _triangular(kernel, [-b if k % 2 else b for k, b in enumerate(row)])


def factorial_identity(n: int) -> tuple[int, int]:
    """Both sides of the last-entry identity

        sum_{m=0}^{n-1} (-1)^m C(2n-1, n-m-1) {2n-1+m brace n+m}_n = (n-1)!.

    The left side is the last entry of the r-Stirling row.  Returns
    (left, right); they agree for every n >= 1.
    """
    return _factorial_identity(rstirling_values(n))


def _factorial_identity(stirlings: list[int]) -> tuple[int, int]:
    """factorial_identity(n) from the r-Stirling values of row n."""
    n = len(stirlings)
    left = sum(
        (-1) ** m * comb(2 * n - 1, n - 1 - m) * s for m, s in enumerate(stirlings)
    )
    return left, factorial(n - 1)
