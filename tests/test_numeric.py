import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import (
    MACHINE_EPS,
    ROUTE_CLOSED,
    ROUTE_FD,
    ROUTE_TAYLOR,
    CoefficientTable,
    ConvergenceError,
    bernstein_scan,
    lambert_w,
    log_grid,
    pn_series_eval,
    poly_eval_exact,
    w_derivative,
    w_derivative_fd,
    w_derivative_taylor,
)

# Omega constant: bisection on w*e^w = 1 to 1e-15, confirmed against an
# independent multiprecision evaluation.
OMEGA = 0.5671432904097838


# log_grid bounds: any float, positive ones more often, and the edge cases
BOUNDS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e-310,
                     sys.float_info.min, sys.float_info.max]),
    st.floats(min_value=0.0),
    st.floats(),
)


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestLambertW:
    def test_zero(self):
        ev = lambert_w(0.0)
        assert ev.w == 0.0
        assert ev.residual == 0.0

    def test_at_e(self):
        ev = lambert_w(math.e)
        assert abs(ev.w - 1.0) <= 2 * MACHINE_EPS

    def test_omega_constant(self):
        assert abs(lambert_w(1.0).w - OMEGA) <= 1e-15

    def test_domain_errors(self):
        for bad in (-1.0, -1e-300, math.inf, math.nan):
            with pytest.raises(ValueError):
                lambert_w(bad)

    def test_residual_bound_on_grid(self):
        for x in log_grid(1e-6, 1e6, 100):
            ev = lambert_w(x)
            assert abs(ev.residual) <= 4.0 * MACHINE_EPS * max(x, 1.0)
            assert ev.iterations <= 50
            assert ev.w >= 0.0

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in (1e-9, 0.01, 0.5, 1.0, 2.0, 10.0, 1e4, 1e8):
            reference = float(scipy_special.lambertw(x).real)
            assert rel_err(lambert_w(x).w, reference) < 1e-14

    def test_grid_unchanged_where_the_step_never_overflowed(self):
        # float.hex of x, w and the residual, and the iteration count, on a
        # log grid over [0, 3.6e302] taken before the overflow fix; only the
        # points where every Halley denominator was finite are kept
        path = Path(__file__).parent / "golden" / "lambert_w_grid.txt"
        for line in path.read_text(encoding="ascii").splitlines():
            x, w, residual, iterations = line.split()
            ev = lambert_w(float.fromhex(x))
            assert (ev.w.hex(), ev.residual.hex(), ev.iterations) == (
                w, residual, int(iterations)), x

    @pytest.mark.parametrize("x", [1e303, 1e306, 1.79e308, sys.float_info.max])
    def test_top_of_the_range(self, x):
        # the step's products overflowed here: 697.68 for 691.14 at 1e303,
        # and ConvergenceError from 1e306
        ev = lambert_w(x)
        assert math.isfinite(ev.residual)
        assert abs(ev.w + math.log(ev.w) - math.log(x)) <= 4 * MACHINE_EPS * ev.w


def mpmath_w(x):
    """W(x) by mpmath at 60 digits, rounded to the nearest float."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    return float(mpmath.lambertw(mpmath.mpf(x)).real)


def assert_within_one_ulp(w, reference):
    """w is the correctly rounded reference or one of its float neighbours."""
    assert w in (reference, math.nextafter(reference, math.inf),
                 math.nextafter(reference, -math.inf)), (w, reference)


class TestLambertWAgainstMpmath:
    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-5, 0.5, 1.0, math.e, 1e6,
                                   1e100, 3.6e302, 1e303, 1e305, 1e306, 1e307,
                                   1.79e308, sys.float_info.max])
    def test_points(self, x):
        assert_within_one_ulp(lambert_w(x).w, mpmath_w(x))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.79e308))
    def test_whole_range(self, x):
        assert_within_one_ulp(lambert_w(x).w, mpmath_w(x))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e300, max_value=1.79e308))
    def test_top_of_the_range(self, x):
        assert_within_one_ulp(lambert_w(x).w, mpmath_w(x))


class TestClosedFormDerivative:
    def test_first_derivative_at_e(self, table8):
        d = w_derivative(1, math.e, table8)
        assert d.route == ROUTE_CLOSED
        assert rel_err(d.value, 1 / (2 * math.e)) < 1e-14

    def test_second_derivative_at_e(self, table8):
        # p_2(1) = -3, so the closed form gives -3/(8 e^2)
        d = w_derivative(2, math.e, table8)
        assert rel_err(d.value, -3 / (8 * math.e**2)) < 1e-14

    def test_limit_at_zero(self, table8):
        assert abs(w_derivative(1, 1e-12, table8).value - 1.0) < 1e-9

    def test_domain_errors(self, table8):
        with pytest.raises(ValueError):
            w_derivative(9, 1.0, table8)
        with pytest.raises(ValueError):
            w_derivative(0, 1.0, table8)
        with pytest.raises(ValueError):
            w_derivative(1, 0.0, table8)
        with pytest.raises(ValueError):
            w_derivative(1, -2.0, table8)

    def test_sign_law(self, table8):
        for n in range(1, 9):
            for x in (0.05, 0.7, 3.0, 40.0):
                value = w_derivative(n, x, table8).value
                assert (value > 0) == (n % 2 == 1)


class TestTaylorDerivative:
    def test_values_at_zero(self):
        assert w_derivative_taylor(1, 0.0).value == 1.0
        assert w_derivative_taylor(2, 0.0).value == -2.0
        assert w_derivative_taylor(2, 0.0).route == ROUTE_TAYLOR

    def test_cross_route(self, table8):
        a = w_derivative_taylor(3, 0.05, 1e-12).value
        b = w_derivative(3, 0.05, table8).value
        assert rel_err(a, b) < 1e-8

    def test_cross_route_sweep(self, table8):
        for n in range(1, 9):
            for x in (1e-4, 1e-3, 1e-2, 5e-2, 1e-1):
                a = w_derivative_taylor(n, x, 1e-12).value
                b = w_derivative(n, x, table8).value
                assert rel_err(a, b) < 1e-8, (n, x)

    def test_negative_x_inside_disc(self):
        # d/dx of sum (-m)^(m-1) x^m / m! at x = -0.05, against a direct
        # numeric evaluation of the series derivative
        value = w_derivative_taylor(1, -0.05).value
        direct = sum((-m) ** (m - 1) * (-0.05) ** (m - 1) / math.factorial(m - 1)
                     for m in range(1, 60))
        assert rel_err(value, direct) < 1e-12

    def test_domain_and_tolerance_errors(self):
        with pytest.raises(ValueError):
            w_derivative_taylor(1, 0.4)
        with pytest.raises(ValueError):
            w_derivative_taylor(1, 1 / math.e)
        with pytest.raises(ValueError):
            w_derivative_taylor(0, 0.1)
        with pytest.raises(ValueError):
            w_derivative_taylor(1, 0.1, rel_tol=0.0)

    @pytest.mark.parametrize("x", [0.0, 0.1])
    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -math.inf])
    def test_non_finite_tolerance_is_domain_error(self, x, rel_tol):
        # inf used to stop the series after two terms (2.6 for 4.79 at n=3),
        # nan to run it to the term cap
        with pytest.raises(ValueError, match="finite and positive"):
            w_derivative_taylor(3, x, rel_tol=rel_tol)

    def test_slow_convergence_near_radius_faults(self):
        with pytest.raises(ConvergenceError):
            w_derivative_taylor(1, 0.3678, 1e-12)


class TestFiniteDifference:
    def test_examples(self, table8):
        a = w_derivative_fd(1, math.e)
        assert a.route == ROUTE_FD
        assert rel_err(a.value, w_derivative(1, math.e, table8).value) < 1e-7
        assert rel_err(w_derivative_fd(2, 1.0).value,
                       w_derivative(2, 1.0, table8).value) < 1e-5

    def test_sign_third_derivative(self):
        assert w_derivative_fd(3, 0.5).value > 0

    def test_cross_route_sweep(self, table8):
        for n in range(1, 6):
            for x in (0.1, 0.5, 1.0, math.e, 5.0, 10.0):
                a = w_derivative_fd(n, x).value
                b = w_derivative(n, x, table8).value
                assert rel_err(a, b) < 1e-4, (n, x)

    def test_order_limit(self):
        with pytest.raises(ValueError):
            w_derivative_fd(6, 1.0)
        with pytest.raises(ValueError):
            w_derivative_fd(0, 1.0)
        with pytest.raises(ValueError):
            w_derivative_fd(1, 0.0)


class TestSeriesEvaluation:
    def test_examples(self, table8):
        assert abs(pn_series_eval(1, 0.1, 1e-10) - 1.0) < 1e-9
        assert rel_err(pn_series_eval(3, 0.1, 1e-10), 9.82) < 1e-9
        assert pn_series_eval(2, 0.0, 1e-10) == -2.0

    def test_against_exact_evaluation(self, table40):
        for n in range(1, 11):
            for w in (-0.1, 0.0, 0.05, 0.1, 0.2):
                est = pn_series_eval(n, w, 1e-10)
                exact = poly_eval_exact(n, table40, Fraction(w))
                assert float(abs((Fraction(est) - exact) / exact)) < 1e-8, (n, w)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pn_series_eval(1, 0.25)
        with pytest.raises(ValueError):
            pn_series_eval(0, 0.1)
        with pytest.raises(ValueError):
            pn_series_eval(1, 0.1, rel_tol=-1.0)

    @pytest.mark.parametrize("w", [0.0, 0.1])
    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -math.inf])
    def test_non_finite_tolerance_is_domain_error(self, w, rel_tol):
        # inf used to return 4.189 for p_3(0.1) = 9.82
        with pytest.raises(ValueError, match="finite and positive"):
            pn_series_eval(3, w, rel_tol=rel_tol)

    def test_term_overflow_faults(self):
        with pytest.raises(ConvergenceError):
            pn_series_eval(150, 0.2)

    def test_infinite_term_faults_at_once(self):
        # term s = 132 overflows to -inf without raising; summing on would
        # build exact terms up to the 10^4 cap instead of returning
        with pytest.raises(ConvergenceError,
                           match=r"series term overflow at n=120, w=0\.2, s=132"):
            pn_series_eval(120, 0.2)

    def test_finite_values_unchanged_by_the_overflow_check(self):
        # float.hex of each value before the check existed.  They pin the
        # bits, not the accuracy: from n = 13 at w = 0.2 the cancellation
        # between terms already costs more than rel_tol.
        path = Path(__file__).parent / "golden" / "pn_series_grid.txt"
        for line in path.read_text(encoding="ascii").splitlines():
            n, w, value = line.split()
            assert pn_series_eval(int(n), float(w)).hex() == value, (n, w)


class TestBernsteinScan:
    def test_holds_on_small_scan(self, table8):
        report = bernstein_scan(8, log_grid(0.01, 10, 20), table8)
        assert report.holds
        assert report.violations == ()

    def test_second_derivative_negative(self, table8):
        assert w_derivative(2, math.e, table8).value < 0

    def test_detects_sign_violation(self):
        # a corrupted row with a negative entry breaks the sign law
        bad = CoefficientTable(n_max=2, rows=((), (1,), (-5, 1)))
        report = bernstein_scan(2, [0.5, 1.0], bad)
        assert not report.holds
        assert all(n == 2 for n, _, _ in report.violations)

    def test_grid_validation(self, table8):
        with pytest.raises(ValueError):
            bernstein_scan(2, [], table8)
        with pytest.raises(ValueError):
            bernstein_scan(2, [0.0, 1.0], table8)
        with pytest.raises(ValueError):
            bernstein_scan(9, [1.0], table8)

    def test_w_prime_strictly_decreasing(self, table8):
        grid = log_grid(0.01, 10, 50)
        values = [w_derivative(1, x, table8).value for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLogGrid:
    def test_pinned_construction(self):
        grid = log_grid(1e-6, 1e6, 100)
        assert grid == [10.0 ** (-6 + 12 * i / 99) for i in range(100)]
        assert grid[0] == 1e-6
        assert grid[-1] == 1e6

    def test_validation(self):
        for lo, hi in ((1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                       (1.0, math.nan)):
            with pytest.raises(ValueError):
                log_grid(lo, hi, 3)
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(1.0, 2.0, 1)

    def test_largest_float_as_hi(self):
        top = 1.7976931348623157e308
        assert log_grid(1.0, top, 3) == [1.0, 10.0 ** (math.log10(top) / 2), top]

    @settings(max_examples=300)
    @given(lo=BOUNDS, hi=BOUNDS, count=st.integers(min_value=2, max_value=40))
    def test_points_stay_finite_and_inside(self, lo, hi, count):
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
            with pytest.raises(ValueError):
                log_grid(lo, hi, count)
            return
        grid = log_grid(lo, hi, count)
        assert len(grid) == count
        assert grid[0] == lo and grid[-1] == hi
        assert all(math.isfinite(x) and lo <= x <= hi for x in grid)
