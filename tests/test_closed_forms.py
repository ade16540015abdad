from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import (
    ROUTE_NAMES,
    ROUTE_ROWS,
    CoefficientTable,
    ConsistencyError,
    beta_bernoulli_row,
    beta_carlitz_row,
    beta_explicit_row,
    beta_forward_diff_row,
    beta_rstirling_row,
    bernoulli_higher,
    build_table,
    carlitz_row,
    double_factorial,
    factorial_identity,
    forward_diff_power,
    rstirling_from_beta_row,
    rstirling_shifted,
    rstirling_values,
)
from wderiv import closed_forms
from wderiv.closed_forms import _convolve, _exact_quotients, _power_diff, _power_sums


def ref_explicit_inner(n):
    """The explicit inner sums with one ``pow`` per term, divided by m!."""
    return [sum(comb(m, q) * (-1) ** q * (q + n) ** (m + n - 1) for q in range(m + 1))
            // factorial(m) for m in range(n)]


class TestExplicit:
    def test_stepped_powers_match_one_pow_per_term(self):
        # the route normalises the row of power sums; the reference is the
        # literal double sum, which is (-1)^m times the plain r-Stirling value
        for n in range(1, 61):
            assert closed_forms._explicit_inner(n, _power_sums(n)) == [
                (-1) ** m * s for m, s in enumerate(ref_explicit_inner(n))], n

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


def ref_power_diff(m, p, r):
    """Delta^m x^p at x = r, summed with comb as the formula is written."""
    return sum((-1) ** (m - q) * comb(m, q) * (q + r) ** p for q in range(m + 1))


class TestPowerSum:
    """The three normalisations of Delta^m x^p against the literal sum."""

    @given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=12))
    def test_rstirling_shifted(self, m, n, r):
        assert rstirling_shifted(n, m, r) == Fraction(ref_power_diff(m, n, r),
                                                      factorial(m))

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=12),
           st.one_of(st.integers(min_value=-6, max_value=12),
                     st.fractions(min_value=-5, max_value=5, max_denominator=9)))
    def test_bernoulli_higher(self, order, m, r):
        want = Fraction(factorial(order), factorial(m + order)) * ref_power_diff(
            m, m + order, r)
        assert bernoulli_higher(order, m, r) == want

    @given(st.integers(min_value=0, max_value=14), st.integers(min_value=1, max_value=20))
    def test_forward_diff_power(self, m, n):
        assert forward_diff_power(m, n) == ref_power_diff(m, m + n - 1, n)


def ref_carlitz_row(kappa, lam):
    """The three-term recurrence one entry at a time, on a zero-padded row."""
    row = (1,)
    for kk in range(1, kappa + 1):
        padded = (0,) + row + (0,)
        row = tuple((kk + j - lam) * padded[j + 1] + (kk - j + lam) * padded[j]
                    for j in range(kk + 1))
    return row


class TestCarlitz:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=-70, max_value=70))
    def test_matches_the_entry_by_entry_recurrence(self, kappa, lam):
        assert carlitz_row(kappa, lam) == ref_carlitz_row(kappa, lam)

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
    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=-50, max_value=50))
    def test_row_sum_is_lambda_independent(self, kappa, lam):
        assert sum(carlitz_row(kappa, lam)) == double_factorial(2 * kappa - 1)

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            carlitz_row(-1, 2)


class TestRouteAgreement:
    def test_all_routes_match_recurrence(self):
        table = build_table(80)
        for n in range(1, 81):
            for name, row_of in ROUTE_ROWS.items():
                assert row_of(n) == table.rows[n], (name, n)

    def test_rstirling_recurrence_matches_the_power_sum(self):
        # rstirling_values runs the r-Stirling triangle recurrence;
        # rstirling_shifted is the closed power sum over m!
        for n in range(1, 81):
            assert rstirling_values(n) == [
                rstirling_shifted(n - 1 + m, m, n) for m in range(n)], n

    def test_row_of_power_sums_matches_the_scalar_sum(self):
        for n in range(1, 61):
            assert _power_sums(n) == [_power_diff(m, m + n - 1, n) for m in range(n)], n

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8))
    def test_rows_in_any_order_share_one_binomial_list(self, ns):
        # the list grows to the longest row asked for so far, and a shorter
        # row after it reads the rows it needs from the front
        signed = []
        for n in ns:
            assert _power_sums(n, signed) == [
                _power_diff(m, m + n - 1, n) for m in range(n)], (ns, n)
        assert signed == [[(-1) ** (m - q) * comb(m, q) for q in range(m + 1)]
                          for m in range(max(ns))]

    @pytest.mark.parametrize(
        "route", ["beta_explicit_row", "beta_bernoulli_row", "beta_forward_diff_row"])
    def test_a_power_sum_off_by_one_is_named(self, monkeypatch, route):
        # m! (or (m+n-1)!/(n-1)! / C(m+n-1, n-1), the same) divides the power
        # sum, and from m = 2 on it no longer divides the sum plus one
        power_sums = closed_forms._power_sums
        n = 7
        for m in range(2, n):
            def off_by_one(n, m=m):
                sums = power_sums(n)
                sums[m] += 1
                return sums
            monkeypatch.setattr(closed_forms, "_power_sums", off_by_one)
            with pytest.raises(ConsistencyError, match=rf"^{route}\({n}\)\[{m}\]: "):
                getattr(closed_forms, route)(n)


class TestRouteRegistry:
    def test_verify_routes_are_the_recurrence_plus_the_registry(self):
        assert ROUTE_NAMES == ("recurrence",) + tuple(ROUTE_ROWS)

    @pytest.mark.parametrize("name", sorted(ROUTE_ROWS))
    def test_row_functions_reject_n_below_one(self, name):
        for n in (0, -1):
            with pytest.raises(ValueError):
                ROUTE_ROWS[name](n)

    def test_kernel_routes_give_the_plain_rstirling_values(self):
        # one currency: each kernel-sum route hands back the unsigned S_m,
        # and only the convolution signs them
        names = ("explicit", "rstirling", "bernoulli", "fdiff")
        table = build_table(60)
        for n in range(1, 61):
            want = rstirling_values(n)
            assert rstirling_from_beta_row(n, table) == want, n
            assert list(closed_forms._kernel_inner_values(n, names)) == [
                (name, want) for name in names], n

    def test_convolution_asserts_integrality(self):
        # the convolution signs its values: C(3,0)*2, C(3,1)*2 - 1
        assert _convolve(2, [2, 1]) == (2, 5)
        # it takes ints only; a quotient that is not one raises before it
        assert _exact_quotients(2, [4, 3], [2, 3], "test") == [2, 1]
        with pytest.raises(ConsistencyError, match=r"test\(2\)\[0\]: non-integer result 1/2$"):
            _exact_quotients(2, [1, 0], [2, 1], "test")

    def test_non_integral_inner_value_is_named_by_its_index(self):
        for m in range(5):
            nums = [6, 2, 8, 2, 10]  # twice 3, 1, 4, 1, 5
            nums[m] += 1  # a half added to the quotient
            with pytest.raises(ConsistencyError, match=rf"test\(5\)\[{m}\]: "):
                _exact_quotients(5, nums, [2] * 5, "test")


def ref_rstirling_from_beta(n, m, row):
    """The inversion sum one entry at a time, with a comb per term."""
    return sum((-1) ** k * b * comb(2 * n - 2 + m - k, 2 * n - 2)
               for k, b in enumerate(row))


def with_row(table, n, row):
    """table with row n replaced."""
    rows = table.rows[:n] + (tuple(row),) + table.rows[n + 1:]
    return CoefficientTable(table.n_max, rows)


class TestInversion:
    def test_examples(self, table8):
        # 3^2, then (4^3 - 3^3) and (5^4 - 2*4^4 + 3^4)/2
        assert rstirling_from_beta_row(3, table8) == [9, 37, 97]
        assert rstirling_from_beta_row(1, table8) == [1]

    def test_matches_direct_values(self, table8):
        for n in range(1, 9):
            assert rstirling_from_beta_row(n, table8) == [
                rstirling_shifted(n - 1 + m, m, n) for m in range(n)]

    def test_matches_per_entry_sum(self):
        table = build_table(60)
        for n in range(1, 61):
            row = table.rows[n]
            assert rstirling_from_beta_row(n, table) == [
                ref_rstirling_from_beta(n, m, row) for m in range(n)], n

    def test_matches_per_entry_sum_on_bumped_rows(self, table40):
        for n in (1, 2, 3, 7, 20, 40):
            for j in sorted({0, n // 2, n - 1}):
                for step in (1, -1):
                    row = list(table40.rows[n])
                    row[j] += step
                    bumped = with_row(table40, n, row)
                    assert rstirling_from_beta_row(n, bumped) == [
                        ref_rstirling_from_beta(n, m, row) for m in range(n)], (n, j)

    def test_rejects_rows_outside_the_table(self, table8):
        for n in (0, 9):
            with pytest.raises(ValueError):
                rstirling_from_beta_row(n, table8)

    # The two kernels are inverse power series, so inverting any integer row
    # and convolving the values back gives the row: this is why the round
    # trip is no check of a table.
    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=24).flatmap(
        lambda n: st.lists(st.integers(min_value=-(10**40), max_value=10**40),
                           min_size=n, max_size=n)))
    def test_convolution_inverts_any_integer_row(self, row):
        n = len(row)
        table = with_row(build_table(n), n, row)
        assert _convolve(n, rstirling_from_beta_row(n, table)) == tuple(row)

    def test_round_trip_reproduces_rows(self, table8):
        for n in range(1, 9):
            stirlings = rstirling_from_beta_row(n, table8)
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
