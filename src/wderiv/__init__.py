"""Exact coefficients of the Lambert W derivative polynomials.

The n-th derivative of the principal branch of the Lambert W function is

    d^n W / dx^n = exp(-n W) p_n(W) / (1 + W)^(2n - 1),

with p_n(w) = (-1)^(n-1) sum_k beta(n, k) w^k and every beta(n, k) a
positive integer.  This package builds the beta triangle by a row
recurrence, checks it against a forward-difference kernel sum (in four
normalisations) and a Carlitz-style triangular recurrence, proves the
rows' structural properties (positivity, log-concavity, unimodality, ratio
and binomial inequalities) by exhaustive checks that integers decide (floats
of bounded error only pass the clear cases), and verifies
numerically that the alternating-sign law of the derivatives holds, i.e.
that W is a Bernstein function.
"""
from . import closed_forms, numeric, properties, tableio, triangle, verify
from .closed_forms import *
from .numeric import *
from .properties import *
from .tableio import *
from .triangle import *
from .verify import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    name
    for module in (triangle, closed_forms, properties, numeric, tableio, verify)
    for name in module.__all__
] + ["__version__"]
