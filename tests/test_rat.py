"""The one rational-to-int scaler, `invsp.rat.scaled_ints`."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invsp.rat import rat, scaled_ints

from conftest import rationals

# ints, Fractions and "num/den" strings, mixed in one list
_values = st.lists(
    st.one_of(
        st.integers(-50, 50),
        rationals(),
        rationals().map(lambda q: f"{q.numerator}/{q.denominator}"),
    )
)


@given(_values)
def test_scaled_ints_is_the_values_times_the_lcm_of_their_denominators(values):
    ints, scale = scaled_ints(values)
    exact = [rat(v) for v in values]
    assert scale == lcm(*(q.denominator for q in exact))
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, scale) for n in ints] == exact


def test_scaled_ints_of_nothing():
    assert scaled_ints([]) == ([], 1)
    assert scaled_ints(iter(())) == ([], 1)


@given(_values, st.data())
def test_scaled_ints_rejects_a_float_anywhere(values, data):
    at = data.draw(st.integers(0, len(values)))
    with pytest.raises(TypeError):
        scaled_ints([*values[:at], 0.5, *values[at:]])

