from decimal import Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

import pytest
from hypothesis import given, strategies as st

from wderiv import (
    CoefficientTable,
    alternating_sum,
    boundary_value,
    build_table,
    double_factorial,
    poly_eval_exact,
    recurrence_step,
    triangle,
)
from conftest import GOLDEN_ROWS


class TestBuildTable:
    def test_golden_rows(self, table8):
        for n, row in GOLDEN_ROWS.items():
            assert table8.rows[n] == row

    def test_single_row(self):
        assert build_table(1).rows[1] == (1,)

    def test_row6_boundaries(self):
        t = build_table(6)
        assert t.rows[6][0] == 7776  # 6^5
        assert t.rows[6][5] == 120   # 5!

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_table(0)

    def test_row_lengths_and_positivity(self, table40):
        for n in range(1, 41):
            row = table40.rows[n]
            assert len(row) == n
            assert all(b > 0 for b in row)

    def test_beta_zero_padding(self, table8):
        assert table8.beta(5, -1) == 0
        assert table8.beta(5, 5) == 0
        assert table8.beta(5, 2) == 622

    def test_recurrence_step_needs_matching_length(self):
        with pytest.raises(ValueError):
            recurrence_step(3, (1, 2))

    @pytest.mark.parametrize("n", [0, -1])
    def test_recurrence_step_needs_a_row_number(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            recurrence_step(n, ())


def reference_step(n, row):
    """The recurrence step with int multipliers from ``range``, three ``map``s."""
    own = map(mul, range(3 * n - 1, 2 * n - 2, -1), row + (0,))  # (3n-k-1) b(k)
    left = map(mul, repeat(n), (0,) + row)  # n b(k-1)
    right = map(mul, range(1, n + 2), row[1:] + (0, 0))  # (k+1) b(k+1)
    return tuple(map(sub, map(add, own, left), right))


class DecimalOnly(Decimal):
    """A ``Decimal`` whose arithmetic refuses any operand but a ``Decimal``."""

    def _only_decimal(name):
        def op(self, other):
            if not isinstance(other, Decimal):
                raise TypeError(f"{name} with a {type(other).__name__} operand")
            return getattr(Decimal, name)(self, other)
        return op

    __mul__, __rmul__ = _only_decimal("__mul__"), _only_decimal("__rmul__")
    __add__, __radd__ = _only_decimal("__add__"), _only_decimal("__radd__")
    __sub__, __rsub__ = _only_decimal("__sub__"), _only_decimal("__rsub__")


class TestRowStep:
    @given(st.lists(st.integers(), min_size=1, max_size=60).map(tuple))
    def test_recurrence_step_on_any_int_row(self, row):
        assert recurrence_step(len(row), row) == reference_step(len(row), row)

    def test_decimal_rows_take_no_int_operand(self):
        """Decimal rows are stepped with Decimal multipliers and zero pads."""
        with localcontext(Context(prec=200, traps=[Inexact, Rounded])):
            got = [tuple(map(str, row)) for row in triangle._rows(40, DecimalOnly(1))]
        assert got == [tuple(map(str, row)) for row in triangle._rows(40, 1)]


class TestBoundaryValue:
    def test_examples(self):
        assert boundary_value(5, "first") == 625
        assert boundary_value(4, "second_last") == 36
        assert boundary_value(6, "second") == 14543  # 3*6^6 - 7^6 - 6^5

    def test_matches_table_everywhere(self, table40):
        for n in range(1, 41):
            row = table40.rows[n]
            assert boundary_value(n, "first") == row[0]
            assert boundary_value(n, "last") == row[n - 1]
            if n >= 2:
                assert boundary_value(n, "second") == row[1]
                assert boundary_value(n, "second_last") == row[n - 2]

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            boundary_value(1, "second")
        with pytest.raises(ValueError):
            boundary_value(1, "second_last")
        with pytest.raises(ValueError):
            boundary_value(0, "first")
        with pytest.raises(ValueError):
            boundary_value(3, "middle")


class TestPolyEval:
    def test_examples(self, table8):
        assert poly_eval_exact(3, table8, -1) == 3        # 9 - 8 + 2
        assert poly_eval_exact(2, table8, 0) == -2        # p_2(w) = -2 - w
        assert poly_eval_exact(4, table8, -1) == -15      # -(64 - 79 + 36 - 6)

    def test_fraction_argument(self, table8):
        # p_3(1/2) = 9 + 8/2 + 2/4
        assert poly_eval_exact(3, table8, Fraction(1, 2)) == Fraction(27, 2)

    def test_float_argument_is_taken_exactly(self, table40):
        exact = poly_eval_exact(30, table40, 3)
        assert exact == -5810006547765810844319249015599441678858991122473573
        got = poly_eval_exact(30, table40, 3.0)
        assert type(got) is Fraction and got == exact
        assert poly_eval_exact(3, table40, 0.5) == Fraction(27, 2)

    @pytest.mark.parametrize("w, error", [(float("nan"), ValueError),
                                          (float("inf"), OverflowError),
                                          (float("-inf"), OverflowError)])
    def test_non_finite_float_raises(self, table8, w, error):
        with pytest.raises(error):
            poly_eval_exact(3, table8, w)

    def test_out_of_range(self, table8):
        with pytest.raises(ValueError):
            poly_eval_exact(9, table8, 0)
        with pytest.raises(ValueError):
            poly_eval_exact(0, table8, 0)

    def test_value_at_minus_one_is_double_factorial(self, table40):
        for n in range(1, 41):
            expected = double_factorial(2 * n - 3)
            if n % 2 == 0:
                expected = -expected
            assert poly_eval_exact(n, table40, -1) == expected


class TestAlternatingSum:
    def test_examples(self, table8):
        assert alternating_sum(2, table8) == 1
        assert alternating_sum(3, table8) == 3
        assert alternating_sum(4, table8) == 15  # 64 - 79 + 36 - 6

    def test_identity_all_rows(self, table40):
        for n in range(1, 41):
            assert alternating_sum(n, table40) == double_factorial(2 * n - 3)


class TestDoubleFactorial:
    def test_examples(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105

    def test_below_convention(self):
        with pytest.raises(ValueError):
            double_factorial(-2)

    @given(st.integers(min_value=1, max_value=60))
    def test_recurrence(self, m):
        assert double_factorial(m) == m * double_factorial(m - 2)


class TestCrossDerivation:
    def test_restricted_recurrence_plus_boundaries(self, table40):
        """Re-derive rows from the boundary formulas plus the recurrence on
        its narrow stated range 2 <= k <= (n-1)-3.

        Together these determine every entry of row n except k = n-3, which
        only the zero-padded general recurrence reaches; the derived entries
        must match the general-route row exactly.
        """
        for n in range(6, 41):
            prev = table40.rows[n - 1]
            m = n - 1
            derived = {
                0: boundary_value(n, "first"),
                1: boundary_value(n, "second"),
                n - 2: boundary_value(n, "second_last"),
                n - 1: boundary_value(n, "last"),
            }
            for k in range(2, m - 2):
                derived[k] = (
                    (3 * m - k - 1) * prev[k] + m * prev[k - 1] - (k + 1) * prev[k + 1]
                )
            assert set(range(n)) - set(derived) == {n - 3}
            for k, value in derived.items():
                assert value == table40.rows[n][k], (n, k)


class TestCoefficientTable:
    def test_row_range_errors(self, table8):
        with pytest.raises(ValueError):
            table8.row(0)
        with pytest.raises(ValueError):
            table8.row(9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CoefficientTable(n_max=2, rows=((), (1,), (2,)))
        with pytest.raises(ValueError):
            CoefficientTable(n_max=2, rows=((1,), (2, 1)))
        with pytest.raises(ValueError):
            CoefficientTable(n_max=0, rows=((),))
