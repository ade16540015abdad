"""Closed-form routes to the triangle rows, and the identities among them.

Four independent computations of beta(n, k) exist in the package:

* the row recurrence (``triangle.build_table``),
* the forward-difference kernel sum

      beta(n, k) = sum_{m=0}^{k} C(2n-1, k-m) (-1)^m Delta^m x^(m+n-1)|_(x=n) / m!,

  whose power sums Delta^m x^(m+n-1) at x = n are made for a whole row in
  one pass (``_power_sums``); the signed binomial rows they read do not
  depend on n, so ``verify`` makes each once per run, in a list of its own
  (not a module-level one: two threads extending one list could misalign
  its rows), and a route function makes its own per call,
* the same kernel sum with its inner values, the shifted r-Stirling numbers
  {2n-1+m brace n+m}_n, made by their own triangle recurrence
  (``rstirling_values``) instead of by the power sum,
* a triangular-recurrence family of integer polynomials evaluated at an
  integer point (``beta_carlitz_row``).

The kernel sum has four routes, one per normalisation of its inner values:
the explicit double sum, shifted r-Stirling numbers, Bernoulli polynomials
of negative integer order and iterated forward differences of a power.
``explicit``, ``bernoulli`` and ``fdiff`` normalise the one row of power
sums: the explicit inner sum sum_q C(m, q) (-1)^q (q+n)^(m+n-1) is (-1)^m
times power sum m.  So they check their normalisation identities, not the
power sum itself, and the tests pin the literal double sum.  Every route
returns a whole row; each kernel-sum route makes its n inner values, the
plain r-Stirling numbers S_m = {2n-1+m brace n+m}_n, in O(n) passes of
``map``, ``sum`` or ``accumulate``, and its row is ``_convolve`` of them,
the one place that applies the sign (-1)^m and the binomials C(2n-1, k-m).
A route that divides asserts that each quotient is exact
(``_exact_quotients``), raising :class:`ConsistencyError` naming the route,
the row and the index m otherwise, so the convolution works on integers
alone.  The inversion ``rstirling_from_beta_row`` runs the same triangular
sum on the signed row with the kernel of (1-w)^-(2n-1); the two kernels are
inverse power series, so convolving the inverted values back gives any
integer row, and only the inverted values themselves are worth checking.
Both kernels are unit lower-triangular, so a kernel-sum route's row equals
a table row exactly where its S_m equal the table row's inverted values;
``verify`` decides the routes that way, row by row
(``_kernel_inner_values``), and convolves only where they differ.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from itertools import accumulate, repeat
from math import comb, factorial
from operator import add, mul, neg, sub
from typing import TYPE_CHECKING, Callable

from .triangle import CoefficientTable

if TYPE_CHECKING:
    from fractions import Fraction

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


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def _alternating(values: list[int]) -> list[int]:
    """values with its odd-indexed entries negated, in place."""
    values[1::2] = map(neg, values[1::2])
    return values


def _factorials(n: int) -> Iterable[int]:
    """0!, 1!, ..., (n-1)!."""
    return accumulate(range(1, n), mul, initial=1)


def _exact_quotients(
    n: int, nums: Iterable[int], dens: Iterable[int], context: str
) -> list[int]:
    """nums[m] / dens[m] for each m, which must be integers.

    The first quotient that is not raises :class:`ConsistencyError` naming
    ``context(n)[m]``.
    """
    quotients = []
    for m, (num, den) in enumerate(zip(nums, dens)):
        quotient, remainder = divmod(num, den)
        if remainder:
            from fractions import Fraction

            raise ConsistencyError(
                f"{context}({n})[{m}]: non-integer result {Fraction(num, den)}")
        quotients.append(quotient)
    return quotients


def _triangular(kernel: list[int], values: list[int]) -> list[int]:
    """Entry k is sum_{j<=k} kernel[k-j] values[j], for 0 <= k < len(values)."""
    return [sum(map(mul, kernel[k::-1], values)) for k in range(len(values))]


def _convolve(n: int, values: list[int]) -> tuple[int, ...]:
    """Row n of the kernel sum from its r-Stirling values S_m = ``values[m]``:
    entry k is sum_{m<=k} C(2n-1, k-m) (-1)^m S_m.

    The one place the sign (-1)^m is applied.
    """
    kernel = list(map(comb, repeat(2 * n - 1), range(len(values))))
    return tuple(_triangular(kernel, _alternating(list(values))))


def _power_diff(m: int, p: int, r: int | Fraction) -> int | Fraction:
    """Delta^m x^p at x = r, sum_q (-1)^(m-q) C(m, q) (q+r)^p, without comb."""
    total, coef = 0, (-1) ** m
    for q in range(m + 1):
        total += coef * (q + r) ** p
        coef = -coef * (m - q) // (q + 1)
    return total


def _power_sums(n: int, signed: list[list[int]] | None = None) -> list[int]:
    """Delta^m x^(m+n-1) at x = n for 0 <= m < n: row n's power sums.

    Step m multiplies the powers of step m-1 by n+q in one ``map``, so
    that they are (n+q)^(n-1+m) for q < m, makes (n+m)^(n-1+m), the power
    first read at this step, and sums them times the signed binomials
    (-1)^(m-q) C(m, q), q <= m, in one ``map``.  ``signed[m]`` is binomial
    row m, made from row m-1 by Pascal's rule.  None depends on n, so a run
    that makes many rows passes one list, and each binomial row is made
    once, the first time a row needs it.  The list is the caller's, not
    module-level, so two threads never extend the same one; without it
    each call makes its own.  Entry m equals ``_power_diff(m, m+n-1, n)``.
    """
    if signed is None:
        signed = []
    for m in range(len(signed), n):
        signed.append(list(map(sub, [0] + signed[-1], signed[-1] + [0])) if m else [1])
    powers = [n ** (n - 1)]
    sums = [powers[0]]
    for m in range(1, n):
        powers = list(map(mul, powers, range(n, n + m)))
        powers.append((n + m) ** (n - 1 + m))
        sums.append(sum(map(mul, signed[m], powers)))
    return sums


def _explicit_inner(n: int, sums: list[int]) -> list[int]:
    """Row n's r-Stirling values from its power sums ``sums``: entry m is
    ``sums[m]`` divided exactly by m!, that is (-1)^m times the explicit
    inner sum (1/m!) sum_{q=0}^{m} C(m, q) (-1)^q (q+n)^(m+n-1)."""
    return _exact_quotients(n, sums, _factorials(n), "beta_explicit_row")


def beta_explicit_row(n: int) -> tuple[int, ...]:
    """Row n by the explicit double sum

        beta(n, k) = sum_{m=0}^{k} (1/m!) C(2n-1, k-m) sum_{q=0}^{m} C(m, q) (-1)^q (q+n)^(m+n-1).
    """
    _check_n(n)
    return _convolve(n, _explicit_inner(n, _power_sums(n)))


def rstirling_shifted(n: int, m: int, r: int) -> int:
    """The shifted r-Stirling number of the second kind {n+r brace m+r}_r.

    Computed from the closed sum (1/m!) Delta^m x^n at x = r.  It counts
    partitions of n+r elements into m+r nonempty blocks with the first r
    elements in distinct blocks; in particular the m = 0 case is r^n.
    """
    if n < 0 or m < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    return _exact_quotients(n, [_power_diff(m, n, r)], [factorial(m)], "rstirling_shifted")[0]


def rstirling_values(n: int) -> list[int]:
    """The n values {2n-1+m brace n+m}_n, 0 <= m < n, behind row n.

    Made by the r-Stirling triangle recurrence, not by a power sum.  With
    S(e, K) = {K+e brace K}_n, the recurrence reads
    S(e, K) = S(e, K-1) + K S(e-1, K), with S(e, n) = n^e and S(0, K) = 1.
    Each excess e = 1..n-1 is one ``accumulate`` over K = n..2n-1, and the
    values are S(n-1, n+m); n^e is carried from one excess to the next.
    """
    _check_n(n)
    column, power = [1] * n, 1
    for _ in range(1, n):
        power *= n
        column = list(accumulate(map(mul, range(n + 1, 2 * n), column[1:]),
                                 initial=power))
    return column


def beta_rstirling_row(n: int) -> tuple[int, ...]:
    """Row n as alternating binomial sums of shifted r-Stirling numbers."""
    return _convolve(n, rstirling_values(n))


def bernoulli_higher(order: int, m: int, r: int | Fraction) -> Fraction:
    """Bernoulli polynomial of higher order at negative integer order, B_order^(-m)(r).

    Closed sum: order!/(m+order)! * Delta^m x^(m+order) at x = r.
    The m = 0 case reduces to r^order.
    """
    if order < 0 or m < 0:
        raise ValueError("order and m must be nonnegative")
    from fractions import Fraction

    scale = Fraction(factorial(order), factorial(m + order))
    return scale * _power_diff(m, m + order, r)


def _bernoulli_inner(n: int, sums: list[int]) -> list[int]:
    """Row n's r-Stirling values from its power sums ``sums``: entry m is
    C(m+n-1, n-1) B_(n-1)^(-m)(n), the power sum times C(m+n-1, n-1),
    divided exactly by (m+n-1)!/(n-1)!."""
    nums = map(mul, map(comb, range(n - 1, 2 * n - 1), repeat(n - 1)), sums)
    dens = accumulate(range(n, 2 * n - 1), mul, initial=1)
    return _exact_quotients(n, nums, dens, "beta_bernoulli_row")


def beta_bernoulli_row(n: int) -> tuple[int, ...]:
    """Row n via Bernoulli polynomials of negative order."""
    _check_n(n)
    return _convolve(n, _bernoulli_inner(n, _power_sums(n)))


def forward_diff_power(m: int, n: int) -> int:
    """m-th forward difference of x^(m+n-1) evaluated at x = n.

    Delta^m f(n) = sum_q (-1)^(m-q) C(m, q) f(n+q) with f(x) = x^(m+n-1).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _power_diff(m, m + n - 1, n)


def _forward_diff_inner(n: int, sums: list[int]) -> list[int]:
    """Row n's r-Stirling values from its power sums ``sums``: entry m is
    Delta^m x^(m+n-1) at x = n, divided exactly by m!."""
    return _exact_quotients(n, sums, _factorials(n), "beta_forward_diff_row")


def beta_forward_diff_row(n: int) -> tuple[int, ...]:
    """Row n via iterated forward differences of a power."""
    _check_n(n)
    return _convolve(n, _forward_diff_inner(n, _power_sums(n)))


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
        own = map(mul, range(kk - lam, 2 * kk - lam + 1), row + (0,))  # (k+j-lam) B(k-1, j)
        left = map(mul, range(kk + lam, lam - 1, -1), (0,) + row)  # (k-j+lam) B(k-1, j-1)
        row = tuple(map(add, own, left))
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


def _kernel_inner_values(n: int, names: Collection[str], signed: list[list[int]] | None = None
                         ) -> Iterator[tuple[str, list[int]]]:
    """(route name, r-Stirling values) of row n for each kernel-sum route in
    ``names``, in ``ROUTE_ROWS`` order.

    ``_convolve(n, values)`` is the route's row.  ``explicit``,
    ``bernoulli`` and ``fdiff`` normalise one row of ``_power_sums``, made
    only if one of them is asked for, with the run's binomial rows
    ``signed`` (see there).
    """
    power_routes = ("explicit", "bernoulli", "fdiff")
    sums = _power_sums(n, signed) if any(name in names for name in power_routes) else []
    if "explicit" in names:
        yield "explicit", _explicit_inner(n, sums)
    if "rstirling" in names:
        yield "rstirling", rstirling_values(n)
    if "bernoulli" in names:
        yield "bernoulli", _bernoulli_inner(n, sums)
    if "fdiff" in names:
        yield "fdiff", _forward_diff_inner(n, sums)


def rstirling_from_beta_row(n: int, table: CoefficientTable) -> list[int]:
    """Invert the r-Stirling route: recover {2n-1+m brace n+m}_n, 0 <= m < n.

    The alternating row is a binomial convolution of the r-Stirling sequence
    with the coefficients of (1-w)^(2n-1); multiplying the generating function
    by (1-w)^-(2n-1) inverts it:

        {2n-1+m brace n+m}_n = sum_{k<=m} (-1)^k beta(n, k) C(2n-2+m-k, 2n-2).

    The kernel C(2n-2+j, 2n-2) is built once for the row.
    """
    return _rstirling_from_row(n, table.row(n))


def _rstirling_from_row(n: int, row: tuple[int, ...]) -> list[int]:
    """``rstirling_from_beta_row`` of a table whose row n is ``row``."""
    kernel = [comb(2 * n - 2 + j, 2 * n - 2) for j in range(n)]
    return _triangular(kernel, _alternating(list(row)))


def factorial_identity(n: int) -> tuple[int, int]:
    """Both sides of the last-entry identity

        sum_{m=0}^{n-1} (-1)^m C(2n-1, n-m-1) {2n-1+m brace n+m}_n = (n-1)!.

    The left side is the last entry of the r-Stirling row.  Returns
    (left, right); they agree for every n >= 1.
    """
    stirlings = rstirling_values(n)
    left = sum(
        (-1) ** m * comb(2 * n - 1, n - 1 - m) * s for m, s in enumerate(stirlings)
    )
    return left, factorial(n - 1)
