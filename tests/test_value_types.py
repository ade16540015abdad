"""The five value types are NamedTuples that keep the dataclass-era surface.

Each keeps its fields, defaults, ``repr`` text and hash by value.  The two
that validate, ``CoefficientTable`` and ``PropertyReport``, raise the same
``ValueError`` whichever way an instance is made: by the call, by ``_make``,
by ``_replace``, or rebuilt by ``pickle`` or ``copy``.
"""
import copy
import pickle

import pytest

from wderiv import (
    CoefficientTable,
    DerivativeValue,
    PropertyReport,
    WEvaluation,
    build_table,
    lambert_w,
    w_derivative,
)
from wderiv.verify import CheckFailure

# (class, a valid instance's fields, bad fields, the ValueError text)
INVALID = [
    (CoefficientTable, (2, ((), (1,), (2, 1))), (0, ((),)),
     "n_max must be >= 1"),
    (CoefficientTable, (2, ((), (1,), (2, 1))), (2, ((), (1,))),
     "rows must hold an empty placeholder plus n_max rows"),
    (CoefficientTable, (2, ((), (1,), (2, 1))), (1, ((0,), (1,))),
     "rows must hold an empty placeholder plus n_max rows"),
    (CoefficientTable, (2, ((), (1,), (2, 1))), (2, ((), (1,), (2,))),
     "row 2 must have exactly 2 entries"),
    (PropertyReport, ("positive", True, None, None), ("positive", True, (0,), None),
     "first_violation must be present iff the check failed"),
    (PropertyReport, ("positive", True, None, None), ("positive", False, None, None),
     "first_violation must be present iff the check failed"),
]


def unchecked(cls, fields):
    """An instance made without the checks, as a corrupt pickle could give."""
    return tuple.__new__(cls, fields)


@pytest.mark.parametrize("cls, good, bad, message", INVALID)
class TestValidationOnEveryPath:
    def test_call(self, cls, good, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(*bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**dict(zip(cls._fields, bad)))

    def test_make(self, cls, good, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls._make(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls._make(iter(bad))

    def test_replace(self, cls, good, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(*good)._replace(**dict(zip(cls._fields, bad)))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, cls, good, bad, message, protocol):
        value = cls(*good)
        assert pickle.loads(pickle.dumps(value, protocol)) == value
        data = pickle.dumps(unchecked(cls, bad), protocol)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pickle.loads(data)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy(self, cls, good, bad, message, clone):
        assert clone(cls(*good)) == cls(*good)
        with pytest.raises(ValueError, match=f"^{message}$"):
            clone(unchecked(cls, bad))


def test_replace_keeps_a_valid_instance_valid():
    table = build_table(2)
    assert table._replace(rows=((), (1,), (3, 1))).rows[2] == (3, 1)
    report = PropertyReport("positive", True)
    assert report._replace(holds=False, first_violation=(1,)) == PropertyReport(
        "positive", False, first_violation=(1,))


# one instance of each type, with its repr as the frozen dataclasses gave it
REPRS = [
    (lambda: build_table(3),
     "CoefficientTable(n_max=3, rows=((), (1,), (2, 1), (9, 8, 2)))"),
    (lambda: PropertyReport("unimodal", True, mode_index=2),
     "PropertyReport(property='unimodal', holds=True, first_violation=None, "
     "mode_index=2)"),
    (lambda: PropertyReport("positive", False, first_violation=(1,)),
     "PropertyReport(property='positive', holds=False, first_violation=(1,), "
     "mode_index=None)"),
    (lambda: CheckFailure(3, None, "identity:alternating_sum", "sum is 4, want 5"),
     "CheckFailure(n=3, k=None, check='identity:alternating_sum', "
     "detail='sum is 4, want 5')"),
    (lambda: lambert_w(1.0),
     "WEvaluation(x=1.0, w=0.5671432904097838, residual=-1.1102230246251565e-16, "
     "iterations=2)"),
    (lambda: w_derivative(2, 1.0, build_table(3)),
     "DerivativeValue(n=2, x=1.0, value=-0.2145406462821437, route='closed_form')"),
]


TYPES = {cls.__name__: cls for cls in (CoefficientTable, PropertyReport, CheckFailure,
                                       WEvaluation, DerivativeValue)}


@pytest.mark.parametrize("make, text", REPRS)
def test_repr_is_the_dataclass_repr(make, text):
    value = make()
    assert repr(value) == text
    # the class itself, also where a route builds it with tuple.__new__
    assert type(value) is TYPES[text.partition("(")[0]]


@pytest.mark.parametrize("make, text", REPRS)
def test_assignment_raises_attribute_error(make, text):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.no_such_field = None


@pytest.mark.parametrize("make, text", REPRS)
def test_equality_and_hash_by_value(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # the frozen dataclasses hashed the tuple of their fields too
    fields = tuple(getattr(a, name) for name in a._fields)
    assert hash(a) == hash(fields)
    # instances are tuples: they equal the plain tuple of their fields
    assert a == fields and tuple(a) == fields and len(a) == len(a._fields)
    assert a._asdict() == dict(zip(a._fields, fields))


def test_unequal_values_differ():
    assert build_table(3) != build_table(4)
    assert WEvaluation(1.0, 0.5, 0.0, 4) != WEvaluation(1.0, 0.5, 0.0, 5)
    assert DerivativeValue(1, 1.0, 0.5, "taylor") != DerivativeValue(1, 1.0, 0.5,
                                                                    "closed_form")
    assert PropertyReport("a", True) != PropertyReport("b", True)
    assert CheckFailure(1, 0, "c", "d") != CheckFailure(1, None, "c", "d")


def test_fields_defaults_and_methods():
    assert CoefficientTable._fields == ("n_max", "rows")
    assert PropertyReport._fields == ("property", "holds", "first_violation",
                                      "mode_index")
    assert PropertyReport._field_defaults == {"first_violation": None,
                                              "mode_index": None}
    assert CheckFailure._fields == ("n", "k", "check", "detail")
    assert WEvaluation._fields == ("x", "w", "residual", "iterations")
    assert DerivativeValue._fields == ("n", "x", "value", "route")
    table = build_table(3)
    assert table.row(3) == (9, 8, 2) and table.beta(3, 1) == 8
    assert table.beta(3, 3) == 0
    assert CheckFailure(2, None, "c", "d").sort_key() == (2, 10**9, "c")
