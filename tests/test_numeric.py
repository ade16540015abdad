import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wderiv import (
    MACHINE_EPS,
    ROUTE_CLOSED,
    ROUTE_FD,
    ROUTE_TAYLOR,
    ConvergenceError,
    build_table,
    lambert_w,
    log_grid,
    numeric,
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
        # float.hex of x, w and the residual, and the iteration count, on the
        # log grid over [0, 3.6e302] where no Halley denominator overflowed
        # from the old start ln(1+x).  They pin the bits of the Winitzki
        # start, the accurate defect, the exit rule and the final walk: 18 w
        # moved by one ulp from the old nudge's, 16 of them towards W
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
    """W(x) by mpmath at 60 digits, not rounded to a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        return mpmath.lambertw(mpmath.mpf(x)).real


def is_faithful(w, x):
    """w is one of the two floats either side of the true W(x): |w - W| < ulp."""
    return math.nextafter(w, -math.inf) < mpmath_w(x) < math.nextafter(w, math.inf)


def assert_faithful(x):
    assert is_faithful(lambert_w(x).w, x), (x, lambert_w(x).w, mpmath_w(x))


class TestLambertWAgainstMpmath:
    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-5, 0.5, 1.0, math.e, 1e6,
                                   1e100, 3.6e302, 1e303, 1e305, 1e306, 1e307,
                                   1.79e308, sys.float_info.max])
    def test_points(self, x):
        assert_faithful(x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.79e308))
    def test_whole_range(self, x):
        assert_faithful(x)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e300, max_value=1.79e308))
    def test_top_of_the_range(self, x):
        assert_faithful(x)

    def test_fixed_sample_below_one(self):
        # the old final nudge compared float residuals w*exp(w) - x, whose
        # rounding, about ulp(x), swamps the neighbours' difference below
        # x = 1: 20 of these 500 were 1 ulp or more from W, up to 1.52 ulp
        rng = random.Random(31)
        xs = [10.0 ** rng.uniform(-12.0, 0.0) for _ in range(500)]
        assert [x for x in xs if not is_faithful(lambert_w(x).w, x)] == []

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.79e308))
    @example(5e-324)
    @example(sys.float_info.max)
    def test_final_walk_takes_at_most_three_neighbours(self, x):
        """The exit rule leaves w within an ulp or so of W, so the final
        walk steps to at most three neighbours; a looser rule needs more."""
        made = []
        nextafter = math.nextafter
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric.math, "nextafter",
                          lambda w, to: made.append(w) or nextafter(w, to))
            lambert_w(x)
        assert len(made) <= 3, (x, made)


@pytest.fixture(scope="module")
def table138():
    return build_table(138)


@pytest.fixture(scope="module")
def table200():
    return build_table(200)


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

    def test_second_derivative_negative(self, table8):
        assert w_derivative(2, math.e, table8).value < 0

    def test_w_prime_strictly_decreasing(self, table8):
        grid = log_grid(0.01, 10, 50)
        values = [w_derivative(1, x, table8).value for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=138),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(138, 10.0)  # -inf before the range check
    @example(80, 1e6)  # -0.0
    @example(35, 1e10)  # subnormal
    @example(138, 5e-324)
    @example(1, sys.float_info.max)
    def test_sign_law_in_floats(self, table138, n, x):
        """For w >= 0 every Horner term is positive, so a normal value
        has the sign (-1)^(n-1); any other value raises."""
        try:
            value = w_derivative(n, x, table138).value
        except OverflowError:
            return
        assert sys.float_info.min <= abs(value) <= sys.float_info.max
        assert (value > 0.0) == (n % 2 == 1), (n, x, value)

    def test_power_overflow_raises_naming_n_and_x(self):
        """(1 + W)^(2n-1) overflows from about x = 2e9 at n = 120; the value
        is then far below the least subnormal, so no binary64 but a signed
        zero holds it, and ``w_derivative`` raises a typed error instead."""
        table = build_table(121)
        for n in (120, 121):
            with pytest.raises(OverflowError, match=(
                    rf"^d\^{n}W/dx\^{n} \(closed_form\) at x = 10000000000\.0 is below "
                    rf"1e-420 in magnitude: \(1 \+ W\)\^{2 * n - 1} overflows binary64$")):
                w_derivative(n, 1e10, table)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            w = mpmath.lambertw(mpmath.mpf(10) ** 10).real
            exact = (-mpmath.exp(-120 * w) * mpmath.polyval(table.rows[120][::-1], w)
                     / (1 + w) ** 239)
            assert exact < 0 and abs(exact) < mpmath.mpf(2) ** -1075  # rounds to -0.0

    @pytest.mark.parametrize("n, x", [(65, 1e6), (66, 1e6), (71, 3e5)])
    def test_exp_decay_below_the_normal_range(self, table138, n, x):
        """exp(-nW) is below the normal range and the value is normal:
        rounding exp(-nW) to a subnormal first cost 7.7e-6 relative at
        (65, 1e6), and at (66, 1e6) gave -0.0."""
        assert math.exp(-n * lambert_w(x).w) < sys.float_info.min
        value = w_derivative(n, x, table138).value
        assert rel_err(value, mpmath_derivative(n, x, table138)) < 1e-12


def mpmath_derivative(n, x, table):
    """d^nW/dx^n at x by the closed form in mpmath at 50 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = mpmath.lambertw(mpmath.mpf(x)).real
        value = (mpmath.exp(-n * w) * mpmath.polyval(table.rows[n][::-1], w)
                 / (1 + w) ** (2 * n - 1))
        return float(value if n % 2 else -value)


def outcome(call):
    """The float ``call()`` returns, as hex, or the type and text of its error."""
    try:
        return call().hex()
    except Exception as err:
        return type(err), str(err)


def closed_form_on_lambert_w(n, x, table):
    """The closed form evaluated on ``lambert_w(x).w``, one term at a time,
    with exp(-nw) applied last as exp(-nw/2) twice where it is below the
    normal range; where (1 + w)^(2n-1) overflows or the value is not a
    normal binary64, the ``OverflowError`` naming n and x."""
    w = lambert_w(x).w
    acc = 0.0
    for b in reversed(table.rows[n]):
        acc = acc * w + float(b)
    pn = -acc if n % 2 == 0 else acc
    try:
        scale = (1.0 + w) ** (2 * n - 1)
    except OverflowError:
        raise OverflowError(f"d^{n}W/dx^{n} (closed_form) at x = {x} is below 1e-420 in "
                            f"magnitude: (1 + W)^{2 * n - 1} overflows binary64") from None
    if math.exp(-n * w) < sys.float_info.min:
        value = pn / scale * math.exp(-0.5 * n * w) * math.exp(-0.5 * n * w)
    else:
        value = math.exp(-n * w) * pn / scale
    if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
        raise OverflowError(f"d^{n}W/dx^{n} (closed_form) at x = {x} came out {value}, "
                            "outside the normal binary64 range")
    return value


def fd_on_lambert_w(n, x):
    """The Richardson-extrapolated central difference on ``lambert_w(.).w``."""
    h = max(x, 1.0) * MACHINE_EPS ** (1.0 / (n + 2))

    def diff(step):
        return math.fsum((-1) ** i * math.comb(n, i) * lambert_w(x + (n / 2 - i) * step).w
                         for i in range(n + 1)) / step**n

    return (4.0 * diff(h) - diff(2.0 * h)) / 3.0


class TestSameBitsAsOnLambertW:
    """The derivative routes solve W without building a ``WEvaluation``; the
    values are those of the same formulas on ``lambert_w(x).w``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(138, 10.0)  # -inf at the last float row
    @example(139, 1.0)  # an entry past binary64
    @example(120, 1e10)  # (1 + W)^239 overflows
    def test_closed_form(self, table200, n, x):
        assert (outcome(lambda: w_derivative(n, x, table200).value)
                == outcome(lambda: closed_form_on_lambert_w(n, x, table200)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.05, max_value=1e60))
    def test_finite_difference(self, n, x):
        assert w_derivative_fd(n, x).value.hex() == fd_on_lambert_w(n, x).hex()


class TestTaylorDerivative:
    def test_values_at_zero(self):
        assert w_derivative_taylor(1, 0.0).value == 1.0
        assert w_derivative_taylor(2, 0.0).value == -2.0
        assert w_derivative_taylor(2, 0.0).route == ROUTE_TAYLOR
        assert w_derivative_taylor(143, 0.0).value == float(143 ** 142)  # rounded once

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

    @pytest.mark.parametrize("n, x, cause", [
        (113, 0.3, "math range error"),  # a term's exp
        (138, 0.1, "math range error"),
        (144, 1e-9, "math range error"),
        (112, -0.3, "intermediate overflow in fsum"),  # the sum
        (144, 0.0, "int too large to convert to float"),  # the one term (-n)^(n-1)
    ])
    def test_overflow_names_the_route_n_and_x(self, n, x, cause):
        # it raised a bare OverflowError with the cause alone
        with pytest.raises(OverflowError) as info:
            w_derivative_taylor(n, x)
        assert str(info.value) == (
            f"d^{n}W/dx^{n} (taylor) at x = {x}: the series passes binary64 ({cause})")
        w_derivative_taylor(n - 1, x)  # the row before still sums


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

    @staticmethod
    def stencil(n, x):
        """Every point the two central differences evaluate W at."""
        h = max(x, 1.0) * MACHINE_EPS ** (1.0 / (n + 2))
        return [x + (n / 2 - i) * step for step in (h, 2.0 * h) for i in range(n + 1)]

    def test_rejects_exactly_where_the_stencil_goes_negative(self):
        xs = [10.0 ** e for e in range(-300, 1, 3)]
        for n in range(1, 6):
            h = MACHINE_EPS ** (1.0 / (n + 2))
            for x in xs + [n * h, math.nextafter(n * h, 0.0), math.nextafter(n * h, 1.0)]:
                if min(self.stencil(n, x)) < 0.0:
                    with pytest.raises(ValueError, match="stencil x [+]- n[*]h = "):
                        w_derivative_fd(n, x)
                else:
                    assert math.isfinite(w_derivative_fd(n, x).value), (n, x)

    def test_rejection_names_the_low_point(self):
        with pytest.raises(ValueError) as exc:
            w_derivative_fd(2, 1e-300)
        assert str(exc.value) == (
            "finite-difference stencil x +- n*h = 1e-300 +- 2*0.0001220703125 "
            "reaches below 0: its low point is -0.000244140625")

    def test_large_x_is_a_value_or_a_domain_error(self):
        """Where (2h)^n overflows, a ValueError, never a bare OverflowError;
        elsewhere the difference's value where it is a normal binary64, and
        the ``OverflowError`` naming it where it is not."""
        for n in range(1, 6):
            for x in [10.0 ** e for e in range(0, 308, 7)] + [1.7e308]:
                h = max(x, 1.0) * MACHINE_EPS ** (1.0 / (n + 2))
                if math.log2(2.0 * h) * n >= 1024.0:
                    with pytest.raises(ValueError, match="[(]2h[)]\\^n overflows"):
                        w_derivative_fd(n, x)
                    continue
                value = fd_on_lambert_w(n, x)
                if sys.float_info.min <= abs(value) <= sys.float_info.max:
                    assert w_derivative_fd(n, x).value == value, (n, x)
                else:
                    with pytest.raises(OverflowError) as info:
                        w_derivative_fd(n, x)
                    assert str(info.value) == (
                        f"d^{n}W/dx^{n} (finite_difference) at x = {x} came out "
                        f"{value}, outside the normal binary64 range")


def fraction_form_pn_series_eval(n, w, rel_tol):
    """``pn_series_eval`` with each term's rational part built as a Fraction
    and then rounded, as the series evaluation was first written."""
    w_exact = Fraction(w)

    def terms():
        for s in itertools.count():
            ns = n + s
            rational = Fraction(ns ** (ns - 1), math.factorial(s)) * w_exact**s
            t = float(rational) * math.exp(ns * w)
            yield -t if (ns - 1) % 2 else t

    return (numeric._settled_sum(terms(), rel_tol, "reference series")
            * (1.0 + w) ** (2 * n - 1))


class TestSeriesEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10),
           st.floats(min_value=-0.2, max_value=0.2).filter(bool),
           st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_int_division_matches_the_fraction_form(self, n, w, rel_tol):
        """One int true division rounds the term's exact rational part just
        as ``float`` of the Fraction does, so the bits are the same."""
        got = pn_series_eval(n, w, rel_tol)
        assert got.hex() == fraction_form_pn_series_eval(n, w, rel_tol).hex()

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
