"""Exact sparse polynomial arithmetic: examples, axioms, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp.polycore import (
    DimensionMismatchError,
    Polynomial,
    dominates,
    grlex_key,
    is_one_on_hyperplane,
    term_count,
)
from invsp.rat import Rat, rat

from conftest import assert_canonical, polynomials, rationals
from reference_kernels import (
    reference_add,
    reference_mul,
    reference_restrict,
    reference_scale,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X - Y) * (X + Y) == X**2 - Y**2

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_telescoping_product_has_two_terms(self, m):
        geometric = sum(
            (Polynomial.monomial(2, (m - i, i)) for i in range(m + 1)),
            Polynomial.zero(2),
        )
        product = (X - Y) * geometric
        assert product == Polynomial(2, {(m + 1, 0): 1, (0, m + 1): -1})
        assert term_count(product) == 2

    def test_cancellation_gives_empty_term_map(self):
        p = X + Y
        assert (p + p.scale(-1)).is_zero()
        assert term_count(p - p) == 0

    def test_scalar_operations(self):
        assert (X + Y).scale(rat(1, 2)) * 2 == X + Y
        assert 3 * X == X + X + X

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            X + Polynomial.variable(3, 0)

    def test_power(self):
        assert (X + Y) ** 0 == Polynomial.one(2)
        assert (X + Y) ** 3 == (X + Y) * (X + Y) * (X + Y)

    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_binomial_term_count(self, m):
        assert term_count((X + Y) ** m) == m + 1


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(polynomials(2), polynomials(2), polynomials(2))
    def test_associativity_and_commutativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=200, deadline=None)
    @given(polynomials(2), polynomials(2), polynomials(2))
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(polynomials(3, max_terms=4), polynomials(3, max_terms=4))
    def test_term_count_submultiplicative(self, a, b):
        assert term_count(a * b) <= term_count(a) * term_count(b)

    @settings(max_examples=200, deadline=None)
    @given(polynomials(2, max_terms=4), polynomials(2, max_terms=4))
    def test_disjoint_support_addition(self, a, b):
        shared = set(a.terms) & set(b.terms)
        b_clean = Polynomial(2, {m: c for m, c in b.terms.items() if m not in shared})
        assert term_count(a + b_clean) == term_count(a) + term_count(b_clean)


def assert_same_product(got, expected):
    assert got.nvars == expected.nvars
    assert got.terms == expected.terms
    assert all(type(c) is Rat and c != 0 for c in got.terms.values())


class TestMultiplyKernel:
    """The integer product against the pairwise rational product."""

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_product(self, nvars, data):
        a = data.draw(polynomials(nvars, max_terms=6, max_exp=6))
        b = data.draw(polynomials(nvars, max_terms=6, max_exp=6))
        assert_same_product(a * b, reference_mul(a, b))

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cancelling_products(self, nvars, data):
        # (a + b)(a - b) = a^2 - b^2: every cross term cancels to zero
        a = data.draw(polynomials(nvars, max_terms=4, max_exp=5))
        b = data.draw(polynomials(nvars, max_terms=4, max_exp=5))
        got = (a + b) * (a - b)
        assert_same_product(got, reference_mul(a + b, a - b))
        assert got == reference_mul(a, a) - reference_mul(b, b)

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_term_operand_on_either_side(self, nvars, data):
        a = data.draw(polynomials(nvars, max_terms=6, max_exp=6))
        term = data.draw(
            polynomials(nvars, max_terms=1, max_exp=6, coeffs=rationals().filter(bool),
                        allow_zero=False)
        )
        assert term.term_count() == 1
        assert_same_product(a * term, reference_mul(a, term))
        assert_same_product(term * a, reference_mul(term, a))
        assert Polynomial.__rmul__ is Polynomial.__mul__

    @pytest.mark.parametrize("nvars", [0, 1, 2, 3])
    def test_zero_operands(self, nvars):
        zero = Polynomial.zero(nvars)
        p = Polynomial.constant(nvars, rat(-3, 7)) + Polynomial.monomial(nvars, (2,) * nvars)
        for a, b in ((zero, p), (p, zero), (zero, zero)):
            product = a * b
            assert product.nvars == nvars and product.is_zero()

    def test_telescoping_to_two_terms(self):
        one_minus_x = Polynomial(1, {(0,): 1, (1,): -1})
        geometric = Polynomial(1, {(i,): rat(1, 3) for i in range(70)})
        assert_same_product(
            one_minus_x * geometric, Polynomial(1, {(0,): rat(1, 3), (70,): rat(-1, 3)})
        )


def reference_json(nvars, terms):
    ordered = sorted(terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    return {"nvars": nvars, "terms": [{"e": list(m), "c": str(c)} for m, c in ordered]}


class TestIntegerKernels:
    """Each kernel on int numerators against a reference on Fraction dicts."""

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sum_difference_negation_and_scaling(self, nvars, data):
        a = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        b = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        c = data.draw(rationals(max_num=20, max_den=12))
        for got, expected in (
            (a + b, reference_add(a, b)),
            (a - b, reference_add(a, b, -1)),
            (a - a, {}),
            (-a, reference_scale(a, -1)),
            (a.scale(c), reference_scale(a, c)),
            (c * a, reference_scale(a, c)),
            (a + c, reference_add(a, Polynomial.constant(nvars, c))),
        ):
            assert_canonical(got)
            assert got.nvars == nvars and got.terms == expected

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_products_and_restriction(self, nvars, data):
        a = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        b = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        term = data.draw(polynomials(nvars, max_terms=1, max_exp=5, allow_zero=False))
        for got, expected in (
            (a * b, reference_mul(a, b)),
            (a * term, reference_mul(a, term)),
            (term * a, reference_mul(term, a)),
            (a.restrict_to_hyperplane(), reference_restrict(a)),
        ):
            assert_canonical(got)
            assert got.nvars == expected.nvars and got.terms == expected.terms

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equality_hash_and_json_follow_the_coefficients(self, nvars, data):
        a = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        b = data.draw(polynomials(nvars, max_terms=6, max_exp=5))
        c = data.draw(rationals(max_num=20, max_den=12).filter(bool))
        # the same polynomial reached by arithmetic and built from Fractions
        for reached, terms in (
            (a + b, reference_add(a, b)),
            (a * b, reference_mul(a, b).terms),
            (a.scale(c).scale(1 / c), a.terms),
            ((a - b) + b, a.terms),
        ):
            built = Polynomial(nvars, terms)
            assert_canonical(built)
            assert reached == built and hash(reached) == hash(built)
            assert reached.to_json_dict() == built.to_json_dict() == reference_json(nvars, terms)
            assert Polynomial.from_json_dict(reached.to_json_dict()) == reached
        assert (a == b) == (a.terms == b.terms)

    def test_gcd_is_divided_out(self):
        p = Polynomial(2, {(1, 0): rat(1, 2), (0, 1): rat(1, 2)})
        assert p.int_terms() == ({(1, 0): 1, (0, 1): 1}, 2)
        assert (p + p).int_terms() == ({(1, 0): 1, (0, 1): 1}, 1)
        assert (p - p).int_terms() == ({}, 1)
        assert p.scale(rat(4, 3)).int_terms() == ({(1, 0): 2, (0, 1): 2}, 3)

    def test_terms_is_a_read_only_view(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 2})
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = rat(0)
        num, _ = p.int_terms()
        with pytest.raises(TypeError):
            num[(1, 0)] = 0
        assert str(p) == "x + 2*y" and p.term_count() == 2
        assert p != Polynomial(2, {(0, 1): 2})
        assert hash(p) == hash(Polynomial(2, {(0, 1): 2, (1, 0): 1}))

    @pytest.mark.parametrize("nvars", [2.9, 2.0, "2"])
    def test_non_integer_nvars_is_rejected(self, nvars):
        for build in (
            lambda: Polynomial(nvars, {(1, 0): 1}),
            lambda: Polynomial.zero(nvars),
            lambda: Polynomial.constant(nvars, 1),
            lambda: Polynomial.variable(nvars, 0),
        ):
            with pytest.raises(TypeError):
                build()


class TestRestriction:
    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_binomial_restricts_to_one(self, m):
        assert is_one_on_hyperplane((X + Y) ** m)

    def test_restriction_eliminates_last_variable_only(self):
        # x^2 in two variables does not involve y; it restricts to itself
        restricted = (X**2).restrict_to_hyperplane()
        assert restricted == Polynomial.monomial(1, (2,))
        assert restricted != Polynomial.one(1)

    def test_one_variable_restriction_is_evaluation_at_one(self):
        p = Polynomial(1, {(3,): rat(2), (1,): rat(-1)})
        assert p.restrict_to_hyperplane() == Polynomial.constant(0, 1)

    def test_three_variable_restriction(self):
        s = sum((Polynomial.variable(3, i) for i in range(3)), Polynomial.zero(3))
        assert is_one_on_hyperplane(s**4)

    def test_unsupported_dimension(self):
        for nvars in (0, 4):
            with pytest.raises(DimensionMismatchError):
                Polynomial.zero(nvars).restrict_to_hyperplane()
            with pytest.raises(DimensionMismatchError):
                Polynomial.one(nvars).restrict_to_hyperplane()

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_zero_restricts_to_zero(self, nvars):
        restricted = Polynomial.zero(nvars).restrict_to_hyperplane()
        assert restricted.nvars == nvars - 1 and restricted.is_zero()

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_hyperplane_equation_cancels_to_zero(self, nvars):
        # x + y - 1 and x + y + z - 1 vanish on the hyperplane
        f = sum((Polynomial.variable(nvars, i) for i in range(nvars)), Polynomial.zero(nvars))
        restricted = (f - 1).restrict_to_hyperplane()
        assert restricted.nvars == nvars - 1 and restricted.is_zero()
        assert ((f - 1) * f**5).restrict_to_hyperplane().is_zero()

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_polynomial_substitution(self, nvars, data):
        f = data.draw(polynomials(nvars, max_terms=8, max_exp=8))
        restricted = f.restrict_to_hyperplane()
        expected = reference_restrict(f)
        assert restricted.nvars == expected.nvars == nvars - 1
        assert restricted.terms == expected.terms
        assert all(type(c) is Rat for c in restricted.terms.values())

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_high_powers_at_the_key_digit_edges(self, nvars):
        # a lone D-th power of each variable in turn: digit D of a row, row
        # D of a layer, or D Horner steps
        D = 60
        for axis in range(nvars):
            mono = tuple(D if i == axis else 0 for i in range(nvars))
            f = Polynomial.monomial(nvars, mono, rat(5, 3))
            assert f.restrict_to_hyperplane().terms == reference_restrict(f).terms
        powers = sum(
            (Polynomial.monomial(nvars, [D if i == j else 0 for i in range(nvars)], rat(j + 1, 2))
             for j in range(nvars)),
            Polynomial.constant(nvars, rat(-1, 7)),
        )
        restricted = powers.restrict_to_hyperplane()
        assert restricted.terms == reference_restrict(powers).terms
        assert all(type(c) is Rat for c in restricted.terms.values())

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wide_coefficients_and_high_last_exponents(self, nvars, data):
        """Numerators up to 2^80 of either sign, denominators up to 10^6 and
        last exponents up to 40: wide digits, and negative digits that
        borrow from the digit above, the top digit of a row included."""
        coeffs = st.builds(rat, st.integers(-(2**80), 2**80), st.integers(1, 10**6))
        monos = st.tuples(*[st.integers(0, 6)] * (nvars - 1), st.integers(0, 40))
        f = Polynomial(nvars, data.draw(st.dictionaries(monos, coeffs, max_size=6)))
        assert f.restrict_to_hyperplane().terms == reference_restrict(f).terms

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_digits_at_the_bound(self, nvars, sign):
        # without the last variable the restriction is f itself and the digit
        # bound is the sum of |coefficients|; one top digit takes nearly all of
        # it, between digits of the other sign
        lead = (5,) + (3,) * (nvars - 2) + (0,)
        f = Polynomial(nvars, {
            lead: sign * (2**80 - 1),
            (4,) + lead[1:]: -sign,
            (6,) + (0,) * (nvars - 1): -sign,
        })
        assert f.restrict_to_hyperplane().terms == {m[:-1]: c for m, c in f.terms.items()}
        # one power of the last variable: the bound grows by 3 (2 for two
        # variables), and every digit moves to its neighbours
        g = f * Polynomial.variable(nvars, nvars - 1)
        assert g.restrict_to_hyperplane().terms == reference_restrict(g).terms

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_restriction_is_ring_homomorphism(self, data):
        nvars = data.draw(st.sampled_from([2, 3]))
        f = data.draw(polynomials(nvars, max_terms=4, max_exp=3))
        g = data.draw(polynomials(nvars, max_terms=4, max_exp=3))
        assert (f * g).restrict_to_hyperplane() == (
            f.restrict_to_hyperplane() * g.restrict_to_hyperplane()
        )
        assert (f + g).restrict_to_hyperplane() == (
            f.restrict_to_hyperplane() + g.restrict_to_hyperplane()
        )


class TestDominates:
    def test_zero_below_square(self):
        assert dominates(Polynomial.zero(2), (X + Y) ** 2)

    @settings(max_examples=200, deadline=None)
    @given(polynomials(2), polynomials(2), polynomials(2))
    def test_partial_order(self, a, b, c):
        assert dominates(a, a)
        if dominates(a, b) and dominates(b, a):
            assert a == b
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestOrderingAndSerialization:
    def test_grlex_order(self):
        assert grlex_key((3, 0, 1)) > grlex_key((1, 3, 0)) > grlex_key((0, 1, 3))
        assert grlex_key((0, 0, 3)) > grlex_key((2, 0, 0))  # degree dominates

    def test_leading_term(self):
        p = Polynomial(2, {(1, 1): 3, (2, 0): 5, (0, 3): 1})
        assert p.leading_term() == ((0, 3), rat(1))

    def test_iteration_descending(self):
        p = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 0): 1})
        assert [m for m, _ in p.iter_terms()] == [(2, 0), (1, 0), (0, 1)]

    def test_json_round_trip_bit_exact(self):
        p = Polynomial(3, {(1, 2, 0): rat(-3, 2), (0, 0, 7): rat(14), (2, 2, 2): rat(1, 3)})
        text = p.dumps()
        assert Polynomial.loads(text) == p
        assert Polynomial.loads(text).dumps() == text
        data = json.loads(text)
        assert all(isinstance(entry["c"], str) for entry in data["terms"])

    @settings(max_examples=200, deadline=None)
    @given(polynomials(3))
    def test_json_round_trip_random(self, p):
        assert Polynomial.loads(p.dumps()) == p

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            Polynomial.from_json_dict({"terms": []})

    @pytest.mark.parametrize("exponent", [1.5, 1.0, "1"])
    def test_from_json_rejects_a_non_integer_exponent(self, exponent):
        data = {"nvars": 2, "terms": [{"e": [exponent, 0], "c": "1"}, {"e": [0, 1], "c": "1"}]}
        with pytest.raises(TypeError):
            Polynomial.from_json_dict(data)

    def test_from_json_rejects_a_repeated_monomial(self):
        # x + 1/2 y + 1/2 y is not read as x + 1/2 y (or as x + y)
        terms = [{"e": [1, 0], "c": "1"}, {"e": [0, 1], "c": "1/2"}, {"e": [0, 1], "c": "1/2"}]
        with pytest.raises(ValueError, match=r"repeated monomial \[0, 1\]"):
            Polynomial.from_json_dict({"nvars": 2, "terms": terms})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})

    def test_zero_polynomial_properties(self):
        z = Polynomial.zero(2)
        assert z.term_count() == 0
        assert z.degree() == -1
        assert z.is_zero()

    def test_evaluate(self):
        p = (X + Y) ** 2
        assert p.evaluate([rat(1, 2), rat(1, 2)]) == 1
