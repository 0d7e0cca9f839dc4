"""Basic polynomial constructions: closed forms and the product formula.

The product formula is expanded on int tuples in Z[eta]; it is checked
against the closed forms where they exist and, for general weights, against
the defining properties of a basic polynomial.
"""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp.construct import (
    basic_poly,
    basic_poly_closed,
    basic_poly_product,
    coefficient_c,
    is_prime,
    mod_reduction_check,
)
from invsp.groups import GroupSpec
from invsp.polycore import Polynomial, dominates, is_one_on_hyperplane
from invsp.rat import Rat, rat

G7 = GroupSpec.gamma7()

F11_TERMS = {
    (11, 0): 1,
    (0, 11): 1,
    (9, 1): 11,
    (7, 2): 44,
    (5, 3): 77,
    (3, 4): 55,
    (1, 5): 11,
}


class TestCoefficients:
    def test_row_r5(self):
        assert [coefficient_c(5, j) for j in range(1, 6)] == [11, 44, 77, 55, 11]

    @pytest.mark.parametrize("r", range(1, 21))
    def test_first_coefficient(self, r):
        assert coefficient_c(r, 1) == 2 * r + 1

    def test_c33(self):
        assert coefficient_c(3, 3) == 7

    def test_bad_range(self):
        with pytest.raises(ValueError):
            coefficient_c(3, 4)

    def test_divisibility_matches_primality(self):
        for r in range(1, 23):  # all odd 2r+1 <= 45
            assert mod_reduction_check(r) == is_prime(2 * r + 1)

    def test_divisibility_examples(self):
        assert mod_reduction_check(5)  # 11 prime
        assert not mod_reduction_check(4)  # 9 composite
        assert mod_reduction_check(1)  # 3 prime


class TestClosedForms:
    def test_degree11_weighted(self):
        f11 = basic_poly_closed(GroupSpec.weighted(11, 2))
        assert f11 == Polynomial(2, F11_TERMS)
        assert f11.term_count() == 7

    def test_scalar_forms(self):
        assert basic_poly_closed(GroupSpec.scalar(3, 1)) == Polynomial.monomial(1, (3,))
        cube = basic_poly_closed(GroupSpec.scalar(3, 2))
        assert cube == Polynomial(2, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})

    def test_gamma7_fixture(self):
        F = basic_poly_closed(G7)
        assert F.term_count() == 17
        assert F.degree() == 7
        assert F.coefficient((2, 2, 2)) == 7
        assert F.coefficient((1, 1, 1)) == 14

    def test_weighted_q3_has_no_closed_form(self):
        with pytest.raises(ValueError):
            basic_poly_closed(GroupSpec.weighted(7, 3))

    @pytest.mark.parametrize("r", range(1, 8))
    def test_term_count_r_plus_2(self, r):
        assert basic_poly_closed(GroupSpec.weighted(2 * r + 1, 2)).term_count() == r + 2


class TestProductFormula:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_matches_closed_form_weighted(self, p):
        g = GroupSpec.weighted(p, 2)
        assert basic_poly_product(p, (1, 2), 2) == basic_poly_closed(g)

    def test_matches_gamma7_fixture(self):
        product = basic_poly_product(7, (1, 2, 4), 3)
        assert product == basic_poly_closed(G7)
        assert product.degree() == 7

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_scalar_case_collapses(self, p):
        assert basic_poly_product(p, (1, 1), 2) == basic_poly_closed(
            GroupSpec.scalar(p, 2)
        )
        assert basic_poly_product(p, (1, 1), 2) == basic_poly_closed(
            GroupSpec.weighted(p, 1)
        )

    def test_one_variable(self):
        assert basic_poly_product(3, (1,), 1) == Polynomial.monomial(1, (3,))

    def test_general_exponent(self):
        # no closed form, but the product applies and is invariant
        from invsp.groups import is_invariant

        g = GroupSpec.weighted(7, 3)
        phi = basic_poly_product(7, (1, 3), 2)
        assert is_invariant(g, phi)
        assert is_one_on_hyperplane(phi)
        assert phi.constant_term() == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_general_weights(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        n = data.draw(st.integers(1, 3))
        weights = tuple(data.draw(st.lists(
            st.integers(1, 3 * p).filter(lambda w: w % p), min_size=n, max_size=n
        )))
        phi = basic_poly_product(p, weights, n)
        assert all(
            sum(w * e for w, e in zip(weights, mono)) % p == 0 for mono in phi.terms
        )
        assert is_one_on_hyperplane(phi)
        assert phi.constant_term() == 0
        assert all(
            isinstance(c, Rat) and c.denominator == 1 for c in phi.terms.values()
        )

    def test_scalar_one_variable_dispatch(self):
        cube = basic_poly(GroupSpec.scalar(3, 1), "product")
        assert cube == Polynomial.monomial(1, (3,))
        with pytest.raises(ValueError):
            basic_poly(GroupSpec.scalar(9, 1), "product")

    def test_composite_order_rejected(self):
        with pytest.raises(ValueError):
            basic_poly_product(9, (1, 2), 2)

    def test_noncoprime_weight_rejected(self):
        with pytest.raises(ValueError):
            basic_poly_product(7, (1, 7), 2)

    def test_basic_poly_dispatcher(self):
        assert basic_poly(G7, "product") == basic_poly(G7, "closed")
        with pytest.raises(ValueError):
            basic_poly(G7, "telepathy")


class TestBasicPolynomialProperties:
    @pytest.mark.parametrize(
        "g",
        [
            GroupSpec.scalar(2, 2),
            GroupSpec.scalar(5, 2),
            GroupSpec.weighted(7, 2),
            GroupSpec.weighted(11, 2),
            GroupSpec.weighted(13, 2),
            G7,
        ],
    )
    def test_special_axioms(self, g):
        from invsp.groups import is_invariant

        B = basic_poly_closed(g)
        assert is_invariant(g, B)
        assert is_one_on_hyperplane(B)
        assert B.constant_term() == 0
        assert dominates(Polynomial.zero(g.nvars), B)

    def test_gamma7_coordinate_restrictions(self):
        """Setting one variable to zero leaves the order-7 two-variable profile."""
        F = basic_poly_closed(G7)
        f7 = basic_poly_closed(GroupSpec.weighted(7, 2))
        expected = sorted(f7.terms.values())
        for var in range(3):
            sliced = F.set_variable_zero(var)
            assert sorted(sliced.terms.values()) == expected


def test_radical_formula_float_spot_check():
    """Non-normative numeric check of the two-branch radical expression."""
    points = [(rat(13, 10), rat(7, 10)), (rat(1, 4), rat(1, 2)), (rat(2), rat(-3, 10))]
    for r in (2, 3, 5):
        f = basic_poly_closed(GroupSpec.weighted(2 * r + 1, 2))
        for xq, yq in points:
            x, y = float(xq), float(yq)
            root = cmath.sqrt(x * x + 4 * y)
            value = (
                ((x + root) / 2) ** (2 * r + 1)
                + ((x - root) / 2) ** (2 * r + 1)
                + y ** (2 * r + 1)
            )
            exact = float(f.evaluate([xq, yq]))
            assert abs(value.real - exact) < 1e-9
            assert abs(value.imag) < 1e-9
