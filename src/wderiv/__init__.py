"""Exact coefficients of the Lambert W derivative polynomials.

The n-th derivative of the principal branch of the Lambert W function is

    d^n W / dx^n = exp(-n W) p_n(W) / (1 + W)^(2n - 1),

with p_n(w) = (-1)^(n-1) sum_k beta(n, k) w^k and every beta(n, k) a
positive integer.  This package builds the beta triangle by a row
recurrence, checks it against a forward-difference kernel sum (in four
normalisations) and a Carlitz-style triangular recurrence, proves the
rows' structural properties (positivity, log-concavity, unimodality, ratio
and binomial inequalities) by exhaustive exact integer checks, and verifies
numerically that the alternating-sign law of the derivatives holds, i.e.
that W is a Bernstein function.
"""
from .triangle import (
    CoefficientTable,
    BOUNDARY_KINDS,
    build_table,
    recurrence_step,
    boundary_value,
    poly_eval_exact,
    alternating_sum,
    double_factorial,
)
from .closed_forms import (
    ConsistencyError,
    ROUTE_ROWS,
    beta_explicit_row,
    rstirling_shifted,
    beta_rstirling_row,
    bernoulli_higher,
    beta_bernoulli_row,
    forward_diff_power,
    beta_forward_diff_row,
    carlitz_row,
    beta_carlitz_row,
    rstirling_from_beta,
    factorial_identity,
)
from .properties import (
    PropertyReport,
    is_positive,
    is_log_concave,
    is_log_concave_weighted,
    is_unimodal,
    check_ratio_bound,
    check_lemma1,
)
from .numeric import (
    MACHINE_EPS,
    ROUTE_CLOSED,
    ROUTE_TAYLOR,
    ROUTE_FD,
    ConvergenceError,
    WEvaluation,
    DerivativeValue,
    BernsteinScanReport,
    lambert_w,
    w_derivative,
    w_derivative_taylor,
    w_derivative_fd,
    pn_series_eval,
    bernstein_scan,
    log_grid,
)
from .tableio import (
    table_to_csv,
    table_to_json,
    parse_table_csv,
    parse_table_json,
    parse_table,
    load_table,
)
from .verify import (
    CheckFailure,
    ROUTE_NAMES,
    verify_routes,
    verify_properties,
    verify_identities,
    verify_carlitz_sums,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable", "BOUNDARY_KINDS", "build_table", "recurrence_step",
    "boundary_value", "poly_eval_exact", "alternating_sum", "double_factorial",
    "ConsistencyError", "ROUTE_ROWS", "beta_explicit_row", "rstirling_shifted",
    "beta_rstirling_row", "bernoulli_higher", "beta_bernoulli_row",
    "forward_diff_power", "beta_forward_diff_row", "carlitz_row",
    "beta_carlitz_row", "rstirling_from_beta", "factorial_identity",
    "PropertyReport", "is_positive", "is_log_concave", "is_log_concave_weighted",
    "is_unimodal", "check_ratio_bound", "check_lemma1",
    "MACHINE_EPS", "ROUTE_CLOSED", "ROUTE_TAYLOR", "ROUTE_FD",
    "ConvergenceError", "WEvaluation", "DerivativeValue", "BernsteinScanReport",
    "lambert_w", "w_derivative", "w_derivative_taylor", "w_derivative_fd",
    "pn_series_eval", "bernstein_scan", "log_grid",
    "table_to_csv", "table_to_json", "parse_table_csv", "parse_table_json",
    "parse_table", "load_table",
    "CheckFailure", "ROUTE_NAMES", "verify_routes", "verify_properties",
    "verify_identities", "verify_carlitz_sums", "run_verification",
    "__version__",
]
