"""Exact checks of the structural properties of coefficient rows.

Positivity, log-concavity (plain and k!-weighted), unimodality, the strict
ratio bound (k+1) c_{k+1} < (n-1) c_k, and the binomial inequality
c_k c_m >= C(k+m, k) c_0 c_{k+m}.  Every comparison is an exact integer
comparison: inequalities that are usually written with ratios are checked
in cross-multiplied form, so no rationals or floats appear anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

__all__ = [
    "PropertyReport",
    "is_positive",
    "is_log_concave",
    "is_log_concave_weighted",
    "is_unimodal",
    "check_ratio_bound",
    "check_lemma1",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check on one sequence.

    ``first_violation`` pins the first offending index (or index pair, for
    the two-index checks); it is present exactly when ``holds`` is False.
    ``mode_index`` is the leftmost maximum position, reported only by the
    unimodality check when it succeeds.
    """

    property: str
    holds: bool
    first_violation: tuple[int, ...] | None = None
    mode_index: int | None = None

    def __post_init__(self) -> None:
        if self.holds == (self.first_violation is not None):
            raise ValueError("first_violation must be present iff the check failed")


def _require_nonempty(seq: Sequence[int]) -> None:
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")


def _require_positive(seq: Sequence[int]) -> None:
    _require_nonempty(seq)
    for i, c in enumerate(seq):
        if c <= 0:
            raise ValueError(f"sequence must be positive, entry {i} is {c}")


def is_positive(seq: Sequence[int]) -> PropertyReport:
    """Every entry strictly positive."""
    _require_nonempty(seq)
    for i, c in enumerate(seq):
        if c <= 0:
            return PropertyReport("positive", False, first_violation=(i,))
    return PropertyReport("positive", True)


def _log_concave(seq: Sequence[int], name: str) -> PropertyReport:
    for k in range(1, len(seq) - 1):
        if seq[k - 1] * seq[k + 1] > seq[k] * seq[k]:
            return PropertyReport(name, False, first_violation=(k,))
    return PropertyReport(name, True)


def _weighted(seq: Sequence[int]) -> list[int]:
    return [factorial(j) * c for j, c in enumerate(seq)]


def is_log_concave(seq: Sequence[int]) -> PropertyReport:
    """c_{k-1} c_{k+1} <= c_k^2 at every interior index (positive input only)."""
    _require_positive(seq)
    return _log_concave(seq, "log_concave")


def is_log_concave_weighted(seq: Sequence[int]) -> PropertyReport:
    """Log-concavity of the weighted sequence k! * c_k."""
    _require_positive(seq)
    return _log_concave(_weighted(seq), "log_concave_weighted")


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
    weighted row a_j = j! c_j, which is checked instead.
    Preconditions (checked, domain error on failure): the sequence is
    positive and {k! c_k} is log-concave.
    """
    _require_positive(seq)
    a = _weighted(seq)
    if not _log_concave(a, "log_concave_weighted").holds:
        raise ValueError("lemma1 requires {k! c_k} to be log-concave")
    a0_a = [a[0] * a_j for a_j in a]
    length = len(a)
    for k in range(length):
        for m in range(min(k + 1, length - 1 - k) + 1):
            if a[k] * a[m] < a0_a[k + m]:
                return PropertyReport("lemma1", False, first_violation=(k, m))
    return PropertyReport("lemma1", True)
