"""Exact coefficients of the Lambert W derivative polynomials.

The n-th derivative of the principal branch of the Lambert W function is

    d^n W / dx^n = exp(-n W) p_n(W) / (1 + W)^(2n - 1),

with p_n(w) = (-1)^(n-1) sum_k beta(n, k) w^k and every beta(n, k) a
positive integer.  This package builds the beta triangle by a row
recurrence, checks it against a forward-difference kernel sum (in four
normalisations) and a Carlitz-style triangular recurrence, proves the
rows' structural properties (positivity, log-concavity, unimodality, ratio
and binomial inequalities) by exhaustive checks that integers decide (floats
of bounded error only pass the clear cases), and evaluates W and its
derivatives in binary64.  Exact positivity of rows 1..N, which ``verify``
proves, gives the alternating-sign law

    (-1)^(n-1) W^(n)(x) = exp(-n W) sum_k beta(n, k) W^k / (1+W)^(2n-1) > 0

for every n <= N and x >= 0, the law that makes W a Bernstein function.
That exact positivity is the proof; the float layer (``numeric``) proves
nothing, and raises ``OverflowError`` rather than return a derivative
outside binary64's normal range.

Names resolve on first use (PEP 562), so importing a submodule loads only
that submodule and what it imports.  A submodule name imports just that
submodule.  Any other public name is looked up in the ``__all__`` of the
exporting modules, in order, and bound here once found.
"""
from importlib import import_module

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
_EXPORTING = ("triangle", "closed_forms", "properties", "numeric", "tableio", "verify")
_SUBMODULES = _EXPORTING + ("cli",)


def _module(name: str):
    return import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _module(name)
    if name == "__all__":
        value = [n for module in _EXPORTING for n in _module(module).__all__]
        value.append("__version__")
    else:
        module = next((m for m in map(_module, _EXPORTING) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
