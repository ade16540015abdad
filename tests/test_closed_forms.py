from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import (
    ROUTE_NAMES,
    ROUTE_ROWS,
    ConsistencyError,
    beta_bernoulli_row,
    beta_carlitz_row,
    beta_explicit_row,
    beta_forward_diff_row,
    beta_rstirling_row,
    bernoulli_higher,
    carlitz_row,
    double_factorial,
    factorial_identity,
    forward_diff_power,
    rstirling_from_beta,
    rstirling_shifted,
)
from wderiv.closed_forms import _convolve


class TestExplicit:
    def test_examples(self, table8):
        assert beta_explicit_row(5)[2] == 622
        assert beta_explicit_row(7)[0] == 117649  # 7^6: only the m=0, q=0 term
        assert beta_explicit_row(6) == table8.rows[6]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            beta_explicit_row(0)
        with pytest.raises(ValueError):
            beta_explicit_row(-1)


class TestRStirling:
    def test_examples(self):
        assert rstirling_shifted(2, 0, 3) == 9      # m = 0 gives r^n
        assert rstirling_shifted(3, 1, 3) == 37     # -3^3 + 4^3
        assert rstirling_shifted(0, 0, 5) == 1

    def test_beta_examples(self):
        assert beta_rstirling_row(3) == (9, 8, 2)   # entry 1: C(5,1)*9 - C(5,0)*37
        assert beta_rstirling_row(5)[4] == 24

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            rstirling_shifted(-1, 0, 2)
        with pytest.raises(ValueError):
            rstirling_shifted(1, -1, 2)

    @given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=9))
    def test_m_zero_is_power(self, n, r):
        assert rstirling_shifted(n, 0, r) == r**n

    def test_vanishes_when_blocks_exceed_elements(self):
        # reduced m > n means more blocks than unrestricted elements
        for m in range(4, 8):
            assert rstirling_shifted(3, m, 2) == 0


class TestBernoulli:
    def test_examples(self):
        assert bernoulli_higher(2, 0, 3) == 9
        assert bernoulli_higher(2, 1, 3) == Fraction(37, 3)  # (2!/3!)(4^3 - 3^3)
        assert bernoulli_higher(0, 0, 7) == 1

    def test_beta_examples(self):
        assert beta_bernoulli_row(3)[1] == 8   # 5*1*9 - 1*3*(37/3)
        assert beta_bernoulli_row(4)[3] == 6
        assert beta_bernoulli_row(2) == (2, 1)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            bernoulli_higher(-1, 0, 2)


class TestForwardDiff:
    def test_examples(self):
        assert forward_diff_power(0, 4) == 64          # identity operator
        assert forward_diff_power(1, 3) == 37          # 4^3 - 3^3
        assert forward_diff_power(2, 2) == 18          # 4^3 - 2*3^3 + 2^3

    def test_beta_examples(self):
        assert beta_forward_diff_row(3)[1] == 8
        assert beta_forward_diff_row(4)[0] == 64
        assert beta_forward_diff_row(1) == (1,)


class TestCarlitz:
    def test_base_cases(self):
        assert carlitz_row(0, 9) == (1,)
        # B(1, 0, lam) is the rising factorial (1 - lam),
        # B(1, 1, lam) = (1 - 1 + lam) * B(0, 0, lam)
        assert carlitz_row(1, 2) == (-1, 2)
        assert len(carlitz_row(2, 3)) == 3

    def test_base_column_is_rising_factorial(self):
        for lam in (-2, 0, 3, 11):
            for kappa in range(8):
                expected = 1
                for i in range(1, kappa + 1):
                    expected *= i - lam
                assert carlitz_row(kappa, lam)[0] == expected

    def test_beta_examples(self):
        assert beta_carlitz_row(2) == (2, 1)
        assert beta_carlitz_row(5)[4] == 24

    def test_row_sum_examples(self):
        assert sum(carlitz_row(1, 2)) == 1
        assert sum(carlitz_row(0, 5)) == 1
        assert sum(carlitz_row(3, 4)) == 15

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=-50, max_value=50))
    def test_row_sum_is_lambda_independent(self, kappa, lam):
        assert sum(carlitz_row(kappa, lam)) == double_factorial(2 * kappa - 1)

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            carlitz_row(-1, 2)


class TestRouteAgreement:
    def test_all_routes_match_recurrence(self, table8):
        for n in range(1, 9):
            for name, row_of in ROUTE_ROWS.items():
                assert row_of(n) == table8.rows[n], (name, n)


class TestRouteRegistry:
    def test_verify_routes_are_the_recurrence_plus_the_registry(self):
        assert ROUTE_NAMES == ("recurrence",) + tuple(ROUTE_ROWS)

    @pytest.mark.parametrize("name", sorted(ROUTE_ROWS))
    def test_row_functions_reject_n_below_one(self, name):
        for n in (0, -1):
            with pytest.raises(ValueError):
                ROUTE_ROWS[name](n)

    def test_convolution_asserts_integrality(self):
        assert _convolve(2, [2, -1], "test") == (2, 5)  # C(3,0)*2, C(3,1)*2 - 1
        with pytest.raises(ConsistencyError, match=r"test\(2\)\[0\]"):
            _convolve(2, [Fraction(1, 2), 0], "test")


class TestInversion:
    def test_examples(self, table8):
        assert rstirling_from_beta(3, 1, table8) == 37
        assert rstirling_from_beta(3, 0, table8) == 9
        assert rstirling_from_beta(1, 0, table8) == 1

    def test_matches_direct_values(self, table8):
        for n in range(1, 9):
            for m in range(0, 6):
                assert rstirling_from_beta(n, m, table8) == rstirling_shifted(
                    n - 1 + m, m, n)

    def test_round_trip_reproduces_rows(self, table8):
        for n in range(1, 9):
            stirlings = [rstirling_from_beta(n, m, table8) for m in range(n)]
            for k in range(n):
                back = sum((-1) ** m * comb(2 * n - 1, k - m) * stirlings[m]
                           for m in range(k + 1))
                assert back == table8.rows[n][k]


class TestFactorialIdentity:
    def test_examples(self):
        assert factorial_identity(1) == (1, 1)
        assert factorial_identity(5) == (24, 24)
        assert factorial_identity(8) == (5040, 5040)

    def test_holds_up_to_20(self):
        for n in range(1, 21):
            left, right = factorial_identity(n)
            assert left == right == factorial(n - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorial_identity(0)


def test_consistency_error_is_arithmetic_error():
    assert issubclass(ConsistencyError, ArithmeticError)
