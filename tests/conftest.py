"""Shared hypothesis strategies for exact rational polynomials, and their canonical-form check."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from invsp.polycore import Polynomial
from invsp.rat import rat


def rationals(max_num: int = 9, max_den: int = 4, nonneg: bool = False):
    lo = 0 if nonneg else -max_num
    return st.builds(
        lambda n, d: rat(n, d), st.integers(lo, max_num), st.integers(1, max_den)
    )


def monomials(nvars: int, max_exp: int = 4):
    return st.tuples(*([st.integers(0, max_exp)] * nvars))


def polynomials(
    nvars: int,
    max_terms: int = 5,
    max_exp: int = 4,
    coeffs=None,
    allow_zero: bool = True,
):
    coeffs = coeffs if coeffs is not None else rationals()
    min_size = 0 if allow_zero else 1
    return st.dictionaries(
        monomials(nvars, max_exp), coeffs, min_size=min_size, max_size=max_terms
    ).map(lambda d: Polynomial(nvars, d))


def assert_canonical(p):
    """Nonzero int numerators over a positive denominator coprime to them."""
    num, den = p.int_terms()
    assert type(den) is int and den > 0
    assert all(type(v) is int and v != 0 for v in num.values())
    assert gcd(den, *num.values()) == 1  # so den is 1 for the zero polynomial
    assert all(type(c) is Fraction for c in p.terms.values())
    assert dict(p.terms) == {mono: Fraction(v, den) for mono, v in num.items()}
