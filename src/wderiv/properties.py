"""Exact checks of the structural properties of coefficient rows.

Positivity, log-concavity (plain and k!-weighted), unimodality, the strict
ratio bound (k+1) c_{k+1} < (n-1) c_k, and the binomial inequality
c_k c_m >= C(k+m, k) c_0 c_{k+m}.  Inequalities that are usually written
with ratios are decided in cross-multiplied integer form, never with
rationals; the k!-weighted log-concavity of a row is decided on the row
itself, so the far larger k!-scaled row is never built.  The log-concavity
checks first screen each comparison with float logarithms whose error is
bounded (see ``_log_concave``): a comparison whose float margin clears that
bound holds for certain, and every closer call is decided by the exact
integer test.  So a pass is still a proof, and each report is the one the
exact tests alone give.  On a positive row the weighted log-concavity
implies the plain one (hence unimodality) and the binomial inequality,
which is therefore decided by it alone.

What does not depend on the row is made once per process: the weighted
screen reads its shifts log2((k+1)/k) from the module-level tuple
``_SHIFTS``, and a passing positivity or log-concavity check returns one
prebuilt report.  The tuple lives here, not in the battery's row pass, so
that ``is_log_concave_weighted(row)`` stays a one-argument call: a shift
parameter would let a caller pass wrong shifts and screen a failing row
through, and a private call would hide the checks from wrappers installed
on this module.  The screen's margin scales with ``max(logs)``: on a
positive int row every log is >= 0, so that is the old ``max |log|`` and
the error bound is unchanged.
"""
from __future__ import annotations

from math import log2
from typing import NamedTuple, Sequence

__all__ = [
    "PropertyReport",
    "is_positive",
    "is_log_concave",
    "is_log_concave_weighted",
    "is_unimodal",
    "check_ratio_bound",
    "check_lemma1",
]


class _PropertyReportFields(NamedTuple):
    property: str
    holds: bool
    first_violation: tuple[int, ...] | None = None
    mode_index: int | None = None


class PropertyReport(_PropertyReportFields):
    """Outcome of one property check on one sequence.

    ``first_violation`` pins the first offending index (or index pair, for
    the two-index checks); it is present exactly when ``holds`` is False.
    ``mode_index`` is the leftmost maximum position, reported only by the
    unimodality check when it succeeds.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PropertyReport:
        self = super().__new__(cls, *args, **kwargs)
        if self.holds == (self.first_violation is not None):
            raise ValueError("first_violation must be present iff the check failed")
        return self

    @classmethod
    def _make(cls, iterable) -> PropertyReport:
        # namedtuple's _make (and so _replace) would skip the check in __new__
        return cls(*iterable)

    def __reduce__(self) -> tuple[type, tuple]:
        # pickle protocols 0 and 1 would rebuild through tuple.__new__
        return type(self), tuple(self)


_POSITIVE = PropertyReport("positive", True)
_LOG_CONCAVE = PropertyReport("log_concave", True)
_LOG_CONCAVE_WEIGHTED = PropertyReport("log_concave_weighted", True)

# _SHIFTS[k] = log2((k+1)/k) for k >= 1 (entry 0 is unused), grown by
# ``_shifts``.  It is only ever replaced whole, so a caller that binds it to
# a local reads a complete table.
_SHIFTS: tuple[float, ...] = (0.0,)


def _shifts(length: int) -> tuple[float, ...]:
    """The shift table, with entries for every k < length."""
    global _SHIFTS
    shifts = _SHIFTS
    if len(shifts) < length:
        shifts = _SHIFTS = shifts + tuple(
            log2((k + 1) / k) for k in range(len(shifts), 2 * length))
    return shifts


def _require_nonempty(seq: Sequence[int]) -> None:
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")


def _require_positive(seq: Sequence[int]) -> None:
    _require_nonempty(seq)
    if not min(seq) > 0:
        for i, c in enumerate(seq):
            if c <= 0:
                raise ValueError(f"sequence must be positive, entry {i} is {c}")


def is_positive(seq: Sequence[int]) -> PropertyReport:
    """Every entry strictly positive.

    One ``min`` decides a positive row; the row is walked only to name the
    first entry that is not.
    """
    _require_nonempty(seq)
    if not min(seq) > 0:
        for i, c in enumerate(seq):
            if c <= 0:
                return PropertyReport("positive", False, first_violation=(i,))
    return _POSITIVE


def _log_concave(seq: Sequence[int], passed: PropertyReport, weighted: bool) -> PropertyReport:
    """p c_{k-1} c_{k+1} <= q c_k^2 at every interior k: p = q = 1, or if
    weighted p = k+1 and q = k, which is a_{k-1} a_{k+1} <= a_k^2 for
    a_k = k! c_k divided through by (k-1)! k!.  With L = log2(c), a sum
    2 L[k] - L[k-1] - L[k+1] - log2(p/q) above the margin 1e-9 max(1, M)
    proves the strict inequality; anything else goes to the exact test.
    A row that passes gets ``passed``.

    The shift log2(p/q) is 0.0, or log2((k+1)/k) read from ``_SHIFTS``:
    that very expression, made once per process and not once per row.  The
    table is module-level, not handed down by the battery's row pass, so
    that the public checks keep their one argument, through which no caller
    can pass wrong shifts (see the module docstring).

    Error bound, with M = max |L| over the sequence.  On an int row that
    ``_require_positive`` passes, every entry is >= 1 and every log >= 0, so
    M is ``max(logs)``, the same float as ``max(map(abs, logs))``, and the
    bound below is unchanged.  math.log2 on an int
    below 2**1024 rounds it to a double (relative error 2**-53, so at most
    2**-52 in the log) and takes a libm log2 (1 ulp, at most 2**-52 |L|).
    On a larger int it takes the 53-bit mantissa x of frexp (again at most
    2**-52 in the log), adds log2(x) in [-1, 0) (1 ulp, 2**-53) and the
    exact exponent (one rounding, 2**-53 |L|).  Either way one log is off
    by at most 2**-51 (M + 1).  The shift log2(p/q) is 0 or the log of a
    rounded ratio in (1, 2], off by at most 2**-53 / ln 2 + 2**-52 < 2**-51.
    Four logs, 2 L[k] counting twice, the shift and at most four float
    roundings of values below 4M + 1 add at most 4 * 2**-51 (M + 1) +
    2**-51 + 4 * 2**-53 (4M + 1) = 2**-49 (2M + 1.5) < 2**-48 (M + 1).  The
    margin 1e-9 max(1, M) > 2**-31 (M + 1) is over 10**5 times that bound.
    """
    _require_positive(seq)
    logs = list(map(log2, seq))
    tol = 1e-9 * max(1.0, max(logs))
    shifts = _shifts(len(seq)) if weighted else (0.0,) * len(seq)
    for k in range(1, len(seq) - 1):
        if 2 * logs[k] - logs[k - 1] - logs[k + 1] - shifts[k] <= tol:
            p, q = (k + 1, k) if weighted else (1, 1)
            if p * seq[k - 1] * seq[k + 1] > q * seq[k] * seq[k]:
                return PropertyReport(passed.property, False, first_violation=(k,))
    return passed


def is_log_concave(seq: Sequence[int]) -> PropertyReport:
    """c_{k-1} c_{k+1} <= c_k^2 at every interior index (positive input only)."""
    return _log_concave(seq, _LOG_CONCAVE, weighted=False)


def is_log_concave_weighted(seq: Sequence[int]) -> PropertyReport:
    """Log-concavity of the weighted sequence k! * c_k (positive input only)."""
    return _log_concave(seq, _LOG_CONCAVE_WEIGHTED, weighted=True)


def is_unimodal(seq: Sequence[int]) -> PropertyReport:
    """Weakly rises to a mode, then weakly falls.

    On success, ``mode_index`` is the smallest index attaining the maximum.
    """
    _require_nonempty(seq)
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    j = i
    while j + 1 < len(seq) and seq[j] >= seq[j + 1]:
        j += 1
    if j + 1 < len(seq):
        # first rise after the descent began
        return PropertyReport("unimodal", False, first_violation=(j, j + 1))
    return PropertyReport("unimodal", True, mode_index=seq.index(max(seq)))


def check_ratio_bound(n: int, row: Sequence[int]) -> PropertyReport:
    """Strict bound (k+1) c_{k+1} < (n-1) c_k for all 0 <= k <= n-2.

    Cross-multiplied form of (k+1) c_{k+1} / c_k < n - 1; requires n >= 3
    and a positive row of length n.
    """
    if n < 3:
        raise ValueError("ratio bound requires n >= 3")
    if len(row) != n:
        raise ValueError(f"row must have length {n}")
    _require_positive(row)
    for k in range(n - 1):
        if (k + 1) * row[k + 1] >= (n - 1) * row[k]:
            return PropertyReport("ratio_bound", False, first_violation=(k, k + 1))
    return PropertyReport("ratio_bound", True)


def check_lemma1(seq: Sequence[int]) -> PropertyReport:
    """c_k c_m >= C(k+m, k) c_0 c_{k+m} for 0 <= m <= k+1 with k+m in range.

    Multiplied through by k! m!, this is a_k a_m >= a_0 a_{k+m} on the
    weighted row a_j = j! c_j.
    Preconditions (checked, domain error on failure): the sequence is
    positive and {k! c_k} is log-concave.

    The precondition implies the inequality: the ratios a_{j+1}/a_j of a
    positive log-concave row do not increase, so a_{k+m}/a_k, a product of
    m ratios from index k on, is at most a_m/a_0, the product of the first
    m.  The check therefore returns the precondition's verdict.
    """
    if not is_log_concave_weighted(seq).holds:
        raise ValueError("lemma1 requires {k! c_k} to be log-concave")
    return PropertyReport("lemma1", True)
