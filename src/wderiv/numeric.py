"""Floating-point layer: W on [0, inf), its derivatives, and sign scans.

The exact triangle is the single source of truth for coefficients; this
module converts rows to binary64 where they are used and keeps none past a call.
Three derivative routes are provided so they can check each other:

* ``w_derivative``      -- the closed form exp(-nW) p_n(W) / (1+W)^(2n-1),
* ``w_derivative_taylor`` -- the series sum_{m>=n} (-m)^(m-1) x^(m-n)/(m-n)!,
  valid for |x| < 1/e,
* ``w_derivative_fd``   -- a central finite difference with one Richardson
  extrapolation step, usable as an independent oracle for n <= 5.

``bernstein_scan`` checks the alternating-sign law (-1)^(n-1) d^nW/dx^n > 0
on a grid, the numeric witness that W' is completely monotonic and W is a
Bernstein function.  Row positivity settles that law exactly; the scan
measures binary64 evaluation, and sets aside as unresolved every value
outside the normal binary64 range.
"""
from __future__ import annotations

import math
import sys
from itertools import count, islice
from math import comb, exp, factorial, fsum, log1p
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .triangle import CoefficientTable

__all__ = [
    "MACHINE_EPS",
    "ROUTE_CLOSED",
    "ROUTE_TAYLOR",
    "ROUTE_FD",
    "ConvergenceError",
    "WEvaluation",
    "DerivativeValue",
    "BernsteinScanReport",
    "lambert_w",
    "w_derivative",
    "w_derivative_taylor",
    "w_derivative_fd",
    "pn_series_eval",
    "bernstein_scan",
    "log_grid",
]

MACHINE_EPS = sys.float_info.epsilon

ROUTE_CLOSED = "closed_form"
ROUTE_TAYLOR = "taylor"
ROUTE_FD = "finite_difference"

_MAX_HALLEY_ITERATIONS = 50
# Below this x the Halley step's products stay finite: from w0 = ln(1+x) <= 691,
# |f| <= x*w0 and (w+2)*|f| < 5e305.  They overflow from about x = 3.6e302.
_HALLEY_FINITE_X = 1e300
_MAX_SERIES_TERMS = 10_000
_SERIES_W_BOUND = 0.2  # |w| guard for the p_n series; term ratio ~ e|w|e^w < 1 here


class ConvergenceError(ArithmeticError):
    """An iteration or series hit its cap without meeting its tolerance."""


class WEvaluation(NamedTuple):
    """W(x) on the principal branch plus its round-trip defect w*e^w - x."""

    x: float
    w: float
    residual: float
    iterations: int


class DerivativeValue(NamedTuple):
    """d^nW/dx^n at x, tagged with the route that produced it."""

    n: int
    x: float
    value: float
    route: str


class BernsteinScanReport(NamedTuple):
    """Result of the alternating-sign scan; violations hold (n, x, value).

    ``unresolved`` holds the (n, x, value) whose value is not a normal
    binary64 (zero, subnormal, inf or NaN), so its sign says nothing.
    """

    n_max: int
    grid: tuple[float, ...]
    violations: tuple[tuple[int, float, float], ...]
    unresolved: tuple[tuple[int, float, float], ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations


def lambert_w(x: float) -> WEvaluation:
    """Principal-branch W(x) for finite x >= 0 by Halley's method.

    Start from w0 = ln(1+x); stop when the Halley step drops below
    2*eps*(1+|w|) (or immediately on an exact root).  Where the step's
    products overflow (x from about 1e302) the step is taken with f and its
    derivatives divided by e^w, so the whole float range converges; every
    other step is left as it was.  The converged value
    is then nudged to whichever of its ulp neighbours minimises the
    measured defect |w*e^w - x|, so the reported residual is as small as
    binary64 permits.
    """
    w, iterations, residual = _lambert(x)
    return WEvaluation(x, w, residual, iterations)


def _lambert(x: float) -> tuple[float, int, float]:
    """W(x) as ``lambert_w`` finds it, its Halley iterations and w*e^w - x."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"lambert_w needs finite x >= 0, got {x}")
    w = log1p(x)
    iterations = 0
    large = x > _HALLEY_FINITE_X
    for _ in range(_MAX_HALLEY_ITERATIONS):
        ew = exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        denominator = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if large and not math.isfinite(denominator):
            # the same step with f and the denominator divided by e^w
            g = w - x * exp(-w)
            dw = g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
        else:
            dw = f / denominator
        w -= dw
        iterations += 1
        if abs(dw) <= 2.0 * MACHINE_EPS * (1.0 + abs(w)):
            break
    else:
        raise ConvergenceError(f"lambert_w({x}) did not converge in "
                               f"{_MAX_HALLEY_ITERATIONS} iterations")
    best, best_defect = w, w * exp(w) - x
    for cand in (math.nextafter(w, math.inf), math.nextafter(w, -math.inf)):
        defect = cand * exp(cand) - x
        if abs(defect) < abs(best_defect):
            best, best_defect = cand, defect
    return best, iterations, best_defect


def _closed_form(n: int, coefficients: Iterable[float], w: float) -> float:
    """d^nW/dx^n at the x whose W is w: exp(-nw) p_n(w) / (1+w)^(2n-1).

    p_n(w) is evaluated in binary64 by Horner on row n's entries as floats,
    ``coefficients``, from the top down.
    """
    acc = 0.0
    for b in coefficients:
        acc = acc * w + b
    pn = -acc if n % 2 == 0 else acc
    return exp(-n * w) * pn / (1.0 + w) ** (2 * n - 1)


def w_derivative(n: int, x: float, table: CoefficientTable) -> DerivativeValue:
    """d^nW/dx^n for x > 0 via the closed form and the exact coefficient row."""
    if not 1 <= n <= table.n_max:
        raise ValueError(f"n must be in 1..{table.n_max}, got {n}")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"derivative route needs x > 0, got {x}")
    value = _closed_form(n, map(float, reversed(table.rows[n])), _lambert(x)[0])
    return DerivativeValue(n, x, value, ROUTE_CLOSED)


def _settled_sum(terms: Iterator[float], rel_tol: float, what: str) -> float:
    """fsum of the terms, stopping after two consecutive terms fall below
    rel_tol times the running sum.

    More than 10^4 terms raises ConvergenceError, naming ``what``.
    """
    taken: list[float] = []
    total = 0.0
    small_streak = 0
    for t in islice(terms, _MAX_SERIES_TERMS):
        taken.append(t)
        total += t
        if abs(t) <= rel_tol * abs(total):
            small_streak += 1
            if small_streak == 2:
                return fsum(taken)
        else:
            small_streak = 0
    raise ConvergenceError(f"{what} did not settle within {_MAX_SERIES_TERMS} terms")


def w_derivative_taylor(n: int, x: float, rel_tol: float = 1e-12) -> DerivativeValue:
    """d^nW/dx^n for |x| < 1/e from the series around 0.

    Terms are accumulated until two consecutive terms fall below rel_tol
    times the running sum; more than 10^4 terms raises ConvergenceError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < rel_tol < math.inf:  # also false for nan
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not (math.isfinite(x) and abs(x) < 1.0 / math.e):
        raise ValueError(f"taylor route needs |x| < 1/e, got {x}")
    if x == 0.0:
        return DerivativeValue(n, x, float((-n) ** (n - 1)), ROUTE_TAYLOR)
    log_ax = math.log(abs(x))

    def terms() -> Iterator[float]:
        for m in count(n):
            # (-m)^(m-1) x^(m-n) / (m-n)!, assembled in log space
            t = exp((m - 1) * math.log(m) + (m - n) * log_ax - math.lgamma(m - n + 1))
            if (m - 1) % 2:
                t = -t
            if x < 0.0 and (m - n) % 2:
                t = -t
            yield t

    value = _settled_sum(terms(), rel_tol, f"taylor series for n={n}, x={x}")
    return DerivativeValue(n, x, value, ROUTE_TAYLOR)


def _central_diff(n: int, x: float, h: float, h_n: float) -> float:
    """Order-n central difference of W at x with step h, where h_n = h**n."""
    vals = [
        (-1) ** i * comb(n, i) * _lambert(x + (n / 2 - i) * h)[0]
        for i in range(n + 1)
    ]
    return fsum(vals) / h_n


def w_derivative_fd(n: int, x: float) -> DerivativeValue:
    """Finite-difference oracle for d^nW/dx^n, n <= 5.

    Central difference with step h = max(x, 1)*eps^(1/(n+2)), extrapolated
    once against the doubled step: (4 D(h) - D(2h)) / 3.  Above n = 5 the
    cancellation noise in binary64 makes the estimate meaningless, so that
    is a domain error.  The stencil spans x +- n*h, whose low point x - n*h
    must not be negative, and (2h)^n must not overflow binary64, which it
    does for n >= 2 at large x (from about x = 5.5e157 at n = 2 and 3.9e63
    at n = 5).  Where either fails, this raises ValueError before
    evaluating W anywhere.
    """
    if not 1 <= n <= 5:
        raise ValueError("finite-difference oracle is limited to 1 <= n <= 5")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"finite-difference route needs x > 0, got {x}")
    h = max(x, 1.0) * MACHINE_EPS ** (1.0 / (n + 2))
    if (low := x - n * h) < 0.0:
        raise ValueError(
            f"finite-difference stencil x +- n*h = {x} +- {n}*{h} reaches "
            f"below 0: its low point is {low}")
    try:
        h_n, h2_n = h**n, (2.0 * h) ** n
    except OverflowError:
        raise ValueError(
            f"finite-difference route at x = {x}, n = {n}: (2h)^n overflows "
            f"binary64 for the step h = {h}") from None
    value = (4.0 * _central_diff(n, x, h, h_n) - _central_diff(n, x, 2.0 * h, h2_n)) / 3.0
    return DerivativeValue(n, x, value, ROUTE_FD)


def pn_series_eval(n: int, w: float, rel_tol: float = 1e-10) -> float:
    """p_n(w) from its series form, for |w| <= 0.2:

        p_n(w) = (1+w)^(2n-1) sum_{s>=0} (-1)^(n+s-1) (n+s)^(n+s-1) w^s e^((n+s)w) / s!

    Each term's rational part (n+s)^(n+s-1) w^s / s! is built exactly from
    the binary64 value of w = M / D and only then rounded, as the one
    correctly rounded int division (n+s)^(n+s-1) M^s / (s! D^s), which
    keeps the heavy cancellation at positive w from eating into the
    tolerance.  Stops after two consecutive terms below rel_tol times the
    running sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < rel_tol < math.inf:  # also false for nan
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not (math.isfinite(w) and abs(w) <= _SERIES_W_BOUND):
        raise ValueError(f"series evaluation needs |w| <= {_SERIES_W_BOUND}, got {w}")
    if w == 0.0:
        return float((-1) ** (n - 1) * n ** (n - 1))
    num, den = w.as_integer_ratio()

    def terms() -> Iterator[float]:
        for s in count():
            ns = n + s
            try:
                t = ns ** (ns - 1) * num**s / (factorial(s) * den**s) * exp(ns * w)
            except OverflowError:
                t = math.inf
            if not math.isfinite(t):  # the product overflows to inf without raising
                raise ConvergenceError(f"series term overflow at n={n}, w={w}, s={s}")
            yield -t if (ns - 1) % 2 else t

    return (_settled_sum(terms(), rel_tol, f"series for p_{n}({w})")
            * (1.0 + w) ** (2 * n - 1))


def bernstein_scan(
    n_max: int, grid: list[float] | tuple[float, ...], table: CoefficientTable
) -> BernsteinScanReport:
    """Check (-1)^(n-1) d^nW/dx^n > 0 for each n <= n_max and x in grid.

    The sign law itself is settled exactly by row positivity, which
    ``verify`` proves; this scan measures binary64 evaluation only.  A value
    that is not a normal binary64 (zero, subnormal, inf or NaN: the
    evaluation ran out of range) goes to ``unresolved``, never to
    ``violations``.  W is solved once per grid point and each row converted
    to binary64 once; each value is the one ``w_derivative`` gives there.
    """
    if not 1 <= n_max <= table.n_max:
        raise ValueError(f"n_max must be in 1..{table.n_max}, got {n_max}")
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if any(not (math.isfinite(x) and x > 0.0) for x in grid):
        raise ValueError("grid points must be finite and > 0")
    ws = [_lambert(x)[0] for x in grid]
    violations = []
    unresolved = []
    for n in range(1, n_max + 1):
        coefficients = [float(b) for b in reversed(table.rows[n])]
        for x, w in zip(grid, ws):
            value = _closed_form(n, coefficients, w)
            if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
                unresolved.append((n, x, value))
            elif not (value if n % 2 else -value) > 0.0:
                violations.append((n, x, value))
    return BernsteinScanReport(n_max, tuple(grid), tuple(violations), tuple(unresolved))


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    """count points spaced evenly in log10 between lo and hi inclusive.

    The end points are ``lo`` and ``hi`` themselves; every point is finite
    and lies in [lo, hi], also where 10**e rounds past either end.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got {lo}, {hi}")
    if not (lo > 0.0 and hi > lo):
        raise ValueError("need 0 < lo < hi")
    if count < 2:
        raise ValueError("count must be >= 2")
    e_lo = math.log10(lo)
    e_hi = math.log10(hi)

    def inner(i: int) -> float:
        try:
            point = 10.0 ** (e_lo + (e_hi - e_lo) * i / (count - 1))
        except OverflowError:  # only near the largest float, so past hi
            return hi
        return min(max(point, lo), hi)

    return [lo] + [inner(i) for i in range(1, count - 1)] + [hi]
