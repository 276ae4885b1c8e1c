import math

import pytest
from hypothesis import given, strategies as st

from ulset import MINUS_INF, NU, ExtReal, InvalidInput, UlsetError

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_finite_ordering():
    assert ExtReal.finite(1.0) < ExtReal.finite(2.0)
    assert ExtReal.finite(2.0) > ExtReal.finite(1.0)
    assert ExtReal.finite(1.0) <= ExtReal.finite(1.0)
    assert ExtReal.finite(1.0) == ExtReal.finite(1.0)
    assert not ExtReal.finite(1.0) < ExtReal.finite(1.0)


def test_minus_inf_below_everything_finite():
    assert MINUS_INF < ExtReal.finite(-1e9)
    assert MINUS_INF <= MINUS_INF
    assert not MINUS_INF < MINUS_INF
    assert MINUS_INF == MINUS_INF


@pytest.mark.parametrize("other", [ExtReal.finite(0.0), MINUS_INF, NU])
def test_nu_incomparable(other):
    for a, b in [(NU, other), (other, NU)]:
        assert not a < b
        assert not a <= b
        assert not a > b
        assert not a >= b


def test_nu_equality_is_the_exception():
    assert NU == NU
    assert NU != ExtReal.finite(0.0)
    assert NU != MINUS_INF


def test_comparison_with_plain_numbers():
    assert ExtReal.finite(0.5) <= 1
    assert ExtReal.finite(0.5) < 1.0
    assert not NU <= 0.0
    assert not (NU < 0.0)
    assert MINUS_INF < 0


def test_arithmetic_with_nu_raises():
    with pytest.raises(UlsetError):
        NU + 1.0
    with pytest.raises(UlsetError):
        NU - 1.0
    with pytest.raises(UlsetError):
        -NU


def test_arithmetic_on_finite_and_minus_inf():
    assert (ExtReal.finite(1.5) + 2.0) == ExtReal.finite(3.5)
    assert (ExtReal.finite(1.5) - 0.5) == ExtReal.finite(1.0)
    assert (MINUS_INF + 100.0) is MINUS_INF
    assert (-ExtReal.finite(2.0)) == ExtReal.finite(-2.0)


def test_from_key():
    assert ExtReal.from_key(-math.inf) is MINUS_INF
    assert ExtReal.from_key(math.inf) is NU
    assert ExtReal.from_key(2.5) == ExtReal.finite(2.5)
    assert [str(v) for v in (MINUS_INF, NU, ExtReal.from_key(-0.0))] == ["-inf", "nu", "-0.0"]


def test_finite_constructor_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        ExtReal.finite(math.inf)
    with pytest.raises(InvalidInput):
        ExtReal.finite(math.nan)


def test_value_accessors():
    assert ExtReal.finite(2.0).value == 2.0
    assert MINUS_INF.as_float() == -math.inf
    with pytest.raises(UlsetError):
        MINUS_INF.value
    with pytest.raises(UlsetError):
        NU.as_float()


@given(finite_floats, finite_floats)
def test_order_matches_floats(a, b):
    ea, eb = ExtReal.finite(a), ExtReal.finite(b)
    assert (ea < eb) == (a < b)
    assert (ea <= eb) == (a <= b)
    assert (ea == eb) == (a == b)


@given(finite_floats)
def test_minus_inf_strictly_below(a):
    assert MINUS_INF < ExtReal.finite(a)
    assert not ExtReal.finite(a) < MINUS_INF
