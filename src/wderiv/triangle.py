"""Exact coefficient triangle of the Lambert W derivative polynomials.

The n-th derivative of the principal branch of the Lambert W function has
the closed form

    d^n W / dx^n = exp(-n W) p_n(W) / (1 + W)^(2n - 1),    n >= 1,

where p_n is a polynomial of degree n - 1.  Writing

    p_n(w) = (-1)^(n - 1) * sum_{k=0}^{n-1} beta(n, k) * w^k

factors out the global sign and makes every beta(n, k) a positive integer.
This module builds the beta triangle from the polynomial recurrence

    p_{n+1}(w) = -(n*w + 3n - 1) * p_n(w) + (1 + w) * p_n'(w),    p_1 = 1,

which in coefficient form reads

    beta(n+1, k) = (3n - k - 1)*beta(n, k) + n*beta(n, k-1) - (k+1)*beta(n, k+1)

applied at every 0 <= k <= n with out-of-range entries taken as zero.
All arithmetic is exact (Python integers and fractions, or ``Decimal`` in a
context that raises rather than round); nothing in this module rounds.  The
recurrence runs on ``Decimal`` rows wherever only the decimal strings of the
entries are needed: writing a table, and checking a table file.  One step
body, ``_step``, serves both number types; its multipliers and zero pad are
scalars in the row's own type, so a ``Decimal`` row is never multiplied or
padded by an int, which ``Decimal`` would convert on every entry.
``decimal`` and ``fractions`` are imported where they are used
(``_exact_rows``, ``poly_eval_exact``), so importing this module, as every
command does, loads neither.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import count, repeat
from math import factorial
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple, TypeVar

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "CoefficientTable",
    "build_table",
    "recurrence_step",
    "boundary_value",
    "poly_eval_exact",
    "alternating_sum",
    "double_factorial",
]

_Entry = TypeVar("_Entry")  # int, or Decimal in an unrounded context


class _CoefficientTableFields(NamedTuple):
    n_max: int
    rows: tuple[tuple[int, ...], ...]


class CoefficientTable(_CoefficientTableFields):
    """Dense triangle of the coefficients beta(n, k), 1 <= n <= n_max.

    ``rows[n]`` holds row n (a tuple of length n whose entry k is
    beta(n, k)); ``rows[0]`` is an empty placeholder so that indexing
    matches the mathematical row number.  Instances are immutable and
    safe to share between threads.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CoefficientTable:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if len(self.rows) != self.n_max + 1 or self.rows[0] != ():
            raise ValueError("rows must hold an empty placeholder plus n_max rows")
        for n in range(1, self.n_max + 1):
            if len(self.rows[n]) != n:
                raise ValueError(f"row {n} must have exactly {n} entries")
        return self

    @classmethod
    def _make(cls, iterable) -> CoefficientTable:
        # namedtuple's _make (and so _replace) would skip the checks in __new__
        return cls(*iterable)

    def __reduce__(self) -> tuple[type, tuple]:
        # pickle protocols 0 and 1 would rebuild through tuple.__new__
        return type(self), tuple(self)

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return self.rows[n]

    def beta(self, n: int, k: int) -> int:
        """beta(n, k), with the zero-padding convention outside 0 <= k < n."""
        row = self.row(n)
        if k < 0 or k >= n:
            return 0
        return row[k]


def recurrence_step(n: int, row: tuple[_Entry, ...]) -> tuple[_Entry, ...]:
    """Derive row n+1 from row n of the beta triangle.

    Entries outside the row are zero, so the recurrence applies uniformly
    at every index including the boundaries.  The step is ``_step`` with
    ``range`` multipliers: int ones, whatever the row's type.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(row) != n:
        raise ValueError("row length must equal n")
    return _step(n, row, range(3 * n + 2))


def _step(n: int, row: tuple[_Entry, ...],
          scalars: Sequence[_Entry]) -> tuple[_Entry, ...]:
    """Row n+1 from row n, with ``scalars[i] == i`` for every i < 3n + 2.

    ``scalars[0]`` is the zero that pads the row.  Each of the recurrence's
    three terms is a ``map`` over the row shifted by one place: the step
    runs in C.  With scalars of the row's own type, a ``Decimal`` row is
    stepped with no int operand to convert.
    """
    zero = scalars[0]
    own = map(mul, scalars[3 * n - 1:2 * n - 2:-1], row + (zero,))  # (3n-k-1) b(k)
    left = map(mul, repeat(scalars[n]), (zero,) + row)  # n b(k-1)
    right = map(mul, scalars[1:n + 2], row[1:] + (zero, zero))  # (k+1) b(k+1)
    return tuple(map(sub, map(add, own, left), right))


def _rows(n_max: int | None, first: _Entry) -> Iterator[tuple[_Entry, ...]]:
    """Rows 1..n_max of the triangle (every row if n_max is None), each made
    from the one before.

    Row 1 is ``(first,)``: ``1`` gives int rows, ``Decimal(1)`` gives the
    same entries as ``Decimal`` values (exact only in an unrounded context).
    Every step multiplies by scalars of ``type(first)``, made once for the
    run: one list, extended to 6n + 4 entries whenever row n needs more.
    Only the current row is held.
    """
    row, scalars = (first,), []  # scalars[i] == i, in type(first)
    for n in count(1):
        yield row
        if n_max is not None and n >= n_max:
            return
        if len(scalars) < 3 * n + 2:
            scalars.extend(map(type(first), range(len(scalars), 6 * n + 4)))
        row = _step(n, row, scalars)


def _exact_rows(n_max: int | None) -> Iterator[tuple[Decimal, ...]]:
    """Rows 1..n_max (every row if None) as ``Decimal`` tuples, each computed
    in the exact context.

    ``_rows`` steps them with ``Decimal`` scalars, so no product or sum
    converts an int.  ``str`` of each entry is its plain decimal string, a
    linear pass where ``str(int)`` is quadratic in CPython 3.11.  The
    context is entered around each step only, so the caller's code between
    rows keeps its own; ``Decimal(int)`` is exact in any context.
    ``decimal`` is imported here, on the first row, so the commands that
    never write or read a table file do not load it.
    """
    from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                         InvalidOperation, Overflow, Rounded, localcontext)

    # Unrounded decimal arithmetic: sums and products of integers come out
    # exact, and anything that would round raises instead of being written.
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact, Rounded, Overflow, InvalidOperation])
    rows = _rows(n_max, Decimal(1))
    while True:
        with localcontext(exact):
            row = next(rows, None)
        if row is None:
            return
        yield row


def _differ(got: int | str, want: int | str) -> bool:
    """Whether two entries, ints or decimal strings, differ in value ("007" is 7)."""
    return got != want and int(got) != int(want)


def build_table(n_max: int) -> CoefficientTable:
    """Build the triangle for 1 <= n <= n_max by the recurrence route."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return CoefficientTable(n_max=n_max, rows=((),) + tuple(_rows(n_max, 1)))


def boundary_value(n: int, kind: str) -> int:
    """Closed form for a boundary entry of row n.

    kind "first" is beta(n, 0) = n^(n-1), "second" is beta(n, 1),
    "last" is beta(n, n-1) = (n-1)!, and "second_last" is beta(n, n-2);
    "second" and "second_last" require n >= 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "first":
        return n ** (n - 1)
    if kind == "last":
        return factorial(n - 1)
    if n < 2:
        if kind in ("second", "second_last"):
            raise ValueError(f"kind {kind!r} requires n >= 2")
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "second":
        return 3 * n**n - (n + 1) ** n - n ** (n - 1)
    if kind == "second_last":
        return (2 * n - 2) * factorial(n - 1)
    raise ValueError(f"unknown kind {kind!r}")


def poly_eval_exact(
    n: int, table: CoefficientTable, w: int | float | Decimal | Fraction
) -> Fraction:
    """Evaluate p_n(w) = (-1)^(n-1) * sum_k beta(n, k) w^k exactly.

    Horner's scheme over exact rationals, at the exact value ``Fraction(w)``
    of an int, float, ``Decimal`` or ``Fraction`` w: a NaN raises
    ``ValueError`` and an infinity ``OverflowError``.
    """
    from fractions import Fraction

    row = table.row(n)
    w = Fraction(w)
    acc = Fraction(0)
    for b in reversed(row):
        acc = acc * w + b
    return -acc if n % 2 == 0 else acc


def alternating_sum(n: int, table: CoefficientTable) -> int:
    """sum_k (-1)^k beta(n, k); equals (2n-3)!! with the (-1)!! = 1 convention."""
    return _alternating_sum(table.row(n))


def _alternating_sum(row: tuple[int, ...]) -> int:
    """sum_k (-1)^k row[k]."""
    return sum(row[::2]) - sum(row[1::2])


def double_factorial(m: int) -> int:
    """m!! = m*(m-2)*(m-4)*..., with (-1)!! = 0!! = 1 (empty products)."""
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out
