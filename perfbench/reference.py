"""Reference values and output checks for the numeric-mix workload.

Nothing here imports the package under test.  The coefficients of p_n come
from this file's own recurrence, obtained by differentiating

    d^nW/dx^n = exp(-nW) p_n(W) / (1+W)^(2n-1),   W' = exp(-W) / (1+W),

which gives p_{n+1}(w) = (1+w) (p_n'(w) - n p_n(w)) - (2n-1) p_n(w), p_1 = 1.
Values are then evaluated in ``decimal`` at 40 significant digits (or
exactly, for p_n at a binary64 point), far beyond what the tolerances below
need.

``check`` classifies one operation as ``None`` (correct) or a failure cause.
When the true value lies outside the normal binary64 range, only a
``ValueError`` or ``ArithmeticError`` is correct; any other exception,
``inf``, ``nan`` or ``+-0.0`` is a failure and never escapes.
"""
from __future__ import annotations

import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

EPS = sys.float_info.epsilon
FLOAT_MIN = Decimal(sys.float_info.min)  # smallest normal binary64
FLOAT_MAX = Decimal(sys.float_info.max)

CTX = Context(prec=40)

# relative tolerances per derivative route, as the package documents them
TOLERANCE = {
    "w_derivative": Decimal("1e-10"),
    "w_derivative_taylor": Decimal("1e-8"),
    "w_derivative_fd": Decimal("1e-4"),
    "pn_series_eval": Decimal("1e-8"),
}

# Failure causes of the package as it stands, each a (route, cause) pair.
# A run whose failures all fall in this set is still "correct": the
# failures are counted and reported, not hidden.  Any other failure marks
# the run incorrect.  A later change that fixes a defect simply stops
# producing its cause.
KNOWN_DEFECTS = frozenset({
    # w_derivative converts row entries to float: OverflowError from n = 139
    ("w_derivative", "overflow_error"),
    # ... and overflows or underflows silently in exp(-nW) * p_n / (1+W)^(2n-1)
    ("w_derivative", "inf"),
    ("w_derivative", "nan"),
    ("w_derivative", "zero"),
    ("w_derivative", "out_of_range_value"),
    # exp(-nW) goes subnormal and loses precision although the product is
    # a normal number
    ("w_derivative", "subnormal_intermediate"),
    # the Taylor oracle near |x| = 1/e: cancellation beyond 1e-8 for x > 0,
    # and more than 10^4 terms for x < 0
    ("w_derivative_taylor", "inaccurate"),
    ("w_derivative_taylor", "exception:ConvergenceError"),
    # the finite-difference oracle beyond 1e-4 at large x
    ("w_derivative_fd", "inaccurate"),
})


def signed_rows(n_max: int) -> list[list[int]]:
    """Coefficients of p_1 .. p_n_max (index 0 unused), constant term first."""
    rows: list[list[int]] = [[], [1]]
    for n in range(1, n_max):
        p = rows[n]
        # q = p' - n p
        q = [-n * c for c in p]
        for k in range(1, len(p)):
            q[k - 1] += k * p[k]
        # (1+w) q - (2n-1) p
        nxt = [0] * (len(p) + 1)
        for k, c in enumerate(q):
            nxt[k] += c
            nxt[k + 1] += c
        for k, c in enumerate(p):
            nxt[k] -= (2 * n - 1) * c
        while len(nxt) > n + 1:  # degree n
            nxt.pop()
        rows.append(nxt)
    return rows


class Reference:
    """True values of W-derivatives and p_n up to row n_max."""

    def __init__(self, n_max: int) -> None:
        self.n_max = n_max
        self.rows = signed_rows(n_max)
        with localcontext(CTX):
            self.decimal_rows = [[+Decimal(c) for c in row] for row in self.rows]

    def lambert_w(self, x: float) -> Decimal:
        """W(x) for x > -1/e on the principal branch, to 40 digits."""
        if x < -0.25:
            # branch-point series in p = sqrt(2 (e x + 1))
            p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
            w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
        else:
            w = math.log1p(x)
        with localcontext(CTX):
            xd = Decimal(x)
            w = Decimal(w)
            for _ in range(60):
                e = w.exp()
                f = w * e - xd
                wp1 = w + 1
                step = f / (e * wp1 - (w + 2) * f / (2 * wp1))
                w -= step
                if abs(step) <= abs(w) * Decimal("1e-36") or step == 0:
                    return w
        raise ArithmeticError(f"reference W({x}) did not converge")

    def derivative(self, n: int, x: float) -> tuple[Decimal, Decimal]:
        """(d^nW/dx^n at x, exp(-nW)) to 40 digits."""
        w = self.lambert_w(x)
        with localcontext(CTX):
            acc = Decimal(0)
            for c in reversed(self.decimal_rows[n]):
                acc = acc * w + c
            scale = (-n * w).exp()
            return scale * acc / (1 + w) ** (2 * n - 1), scale

    def pn(self, n: int, w: float) -> Decimal:
        """p_n(w) at the binary64 value w: exact, then rounded to 40 digits."""
        acc = Fraction(0)
        wf = Fraction(w)
        for c in reversed(self.rows[n]):
            acc = acc * wf + c
        with localcontext(CTX):
            return Decimal(acc.numerator) / acc.denominator

    def check_w(self, x: float, outcome: object) -> str | None:
        """W is right when |w e^w - x| <= 4 eps max(x, 1), computed exactly.

        Near the top of [0, 1e6] even the binary64 neighbours of the true W
        can miss that bound, so a w within one ulp of the true W is right
        too: no binary64 answer is better.
        """
        if isinstance(outcome, BaseException):
            return _exception_cause(outcome)
        w = outcome
        if not isinstance(w, float) or math.isnan(w):
            return "nan"
        if math.isinf(w):
            return "inf"
        with localcontext(CTX):
            wd = Decimal(w)
            residual = abs(wd * wd.exp() - Decimal(x))
            if residual <= Decimal(4.0 * EPS * max(x, 1.0)):
                return None
            if abs(wd - self.lambert_w(x)) <= Decimal(math.ulp(w)):
                return None
        return "residual"

    def check(self, route: str, n: int, x: float, outcome: object) -> str | None:
        """None if ``outcome`` of route(n, x) is right, else the failure cause.

        ``outcome`` is the float the route returned or the exception it
        raised; for ``pn_series_eval`` x is the point w.
        """
        if route == "lambert_w":
            return self.check_w(x, outcome)
        if route == "pn_series_eval":
            return check_value(route, self.pn(n, x), outcome)
        truth, scale = self.derivative(n, x)
        return check_value(route, truth, outcome,
                           scale if route == "w_derivative" else None)


def _in_normal_range(value: Decimal) -> bool:
    return FLOAT_MIN <= abs(value) <= FLOAT_MAX


def _exception_cause(err: BaseException) -> str:
    if isinstance(err, OverflowError):
        return "overflow_error"
    return "exception:" + type(err).__name__


def check_value(
    route: str, truth: Decimal, outcome: object, scale: Decimal | None = None
) -> str | None:
    """Classify a derivative or p_n value against its true value.

    ``scale`` is the true exp(-nW) of a closed-form evaluation; when it is
    below the normal range an inaccurate result is attributed to it.
    """
    if not _in_normal_range(truth):
        if isinstance(outcome, (ValueError, ArithmeticError)):
            return None
        if isinstance(outcome, BaseException):
            return _exception_cause(outcome)
        if not isinstance(outcome, float) or math.isnan(outcome):
            return "nan"
        if math.isinf(outcome):
            return "inf"
        return "zero" if outcome == 0.0 else "out_of_range_value"
    if isinstance(outcome, BaseException):
        return _exception_cause(outcome)
    if not isinstance(outcome, float) or math.isnan(outcome):
        return "nan"
    if math.isinf(outcome):
        return "inf"
    if outcome == 0.0:
        return "zero"
    with localcontext(CTX):
        error = abs(Decimal(outcome) - truth)
        if error <= TOLERANCE[route] * abs(truth):
            return None
    if scale is not None and scale < FLOAT_MIN:
        return "subnormal_intermediate"
    return "inaccurate"
