"""Tensor operation, specialness validation, degree estimates, division."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp.construct import basic_poly_closed, coefficient_c
from invsp.gapsearch import GAMMA7_CATALOG, catalog_h, combine_witness, frobenius_closure
from invsp.groups import GroupSpec, enumerate_invariant_monomials
from invsp.polycore import DimensionMismatchError, Polynomial, is_one_on_hyperplane
from invsp.rat import rat
from invsp.transform import (
    degree_bound,
    quotient_H,
    tensor_step,
    validate_special,
)

from conftest import assert_canonical, polynomials, rationals
from reference_kernels import reference_quotient, reference_restrict

G7 = GroupSpec.gamma7()
F7 = basic_poly_closed(G7)


def invariant_polys(g, max_degree=6, max_terms=4, nonneg=False):
    monos = enumerate_invariant_monomials(g, max_degree)
    return st.dictionaries(
        st.sampled_from(monos),
        rationals(nonneg=nonneg),
        min_size=0,
        max_size=max_terms,
    ).map(lambda d: Polynomial(g.nvars, d))


class TestTensorStep:
    def test_gamma7_29(self):
        G = tensor_step(F7, Polynomial(3, {(1, 1, 1): 14}))
        assert G.term_count() == 29

    def test_mixed_sign_quadratic(self):
        F = basic_poly_closed(GroupSpec.scalar(2, 2))
        H = Polynomial(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})
        G = tensor_step(F, H)
        assert G == Polynomial(
            2, {(4, 0): 1, (1, 1): 3, (3, 1): 1, (1, 3): 1, (0, 4): 1}
        )
        assert validate_special(GroupSpec.scalar(2, 2), G).is_special
        assert G.term_count() == 5

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize(
        "g", [GroupSpec.scalar(3, 2), GroupSpec.weighted(7, 2), G7]
    )
    def test_telescoping_powers(self, k, g):
        F = basic_poly_closed(g)
        H = sum((F**i for i in range(1, k)), Polynomial.zero(g.nvars))
        assert tensor_step(F, H) == F**k

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tensor_step(F7, Polynomial.one(2))


class TestValidateSpecial:
    def test_basic_polynomial_is_special(self):
        report = validate_special(G7, F7)
        assert report.is_special
        assert report.n_terms == 17 and report.degree == 7

    def test_constant_one_is_not_special(self):
        report = validate_special(G7, Polynomial.one(3))
        assert report.constant_on_hyperplane
        assert not report.zero_at_origin
        assert not report.is_special

    def test_zero_is_not_special(self):
        report = validate_special(G7, Polynomial.zero(3))
        assert not report.is_special and report.n_terms == 0

    def test_negative_coefficient_flag(self):
        bad = F7 - Polynomial(3, {(1, 1, 1): 28})
        report = validate_special(G7, bad)
        assert not report.nonneg and not report.is_special

    def test_json_shape(self):
        data = validate_special(G7, F7).to_json_dict()
        assert data["is_special"] is True and data["n_terms"] == 17


class TestDegreeBound:
    def test_examples(self):
        r = 5
        assert degree_bound(2, 2 * r + 2) == 4 * r + 1
        assert degree_bound(3, 29) == 14
        assert degree_bound(3, 36) == 17

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            degree_bound(1, 5)
        with pytest.raises(ValueError):
            degree_bound(2, 0)


class TestQuotient:
    def test_zero_h(self):
        assert quotient_H(G7, F7) == Polynomial.zero(3)

    def test_recovers_basic_example(self):
        H = Polynomial(3, {(1, 1, 1): 14})
        assert quotient_H(G7, tensor_step(F7, H)) == H

    def test_power_telescopes(self):
        expected = F7 + F7 * F7
        assert quotient_H(G7, F7**3) == expected

    def test_nonmember_raises(self):
        with pytest.raises(ValueError, match=r"first stray term \(1, 0, 0\)"):
            quotient_H(G7, F7 + Polynomial.variable(3, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        g = data.draw(st.sampled_from([G7, GroupSpec.weighted(7, 2), GroupSpec.scalar(3, 2)]))
        H = data.draw(invariant_polys(g))
        F = basic_poly_closed(g)
        assert quotient_H(g, tensor_step(F, H)) == H


ROUNDTRIP_GROUPS = [G7, GroupSpec.weighted(7, 2), GroupSpec.weighted(11, 2), GroupSpec.scalar(3, 2)]


def division_outcome(divide):
    """("ok", quotient terms) or ("stray", the ValueError's message).

    A quotient must be in canonical form.
    """
    try:
        H = divide()
    except ValueError as exc:
        return "stray", str(exc)
    assert_canonical(H)
    return "ok", H.terms


class TestQuotientKernel:
    """The heap division against the leading-term rescanning division."""

    @pytest.mark.parametrize("g", ROUNDTRIP_GROUPS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_members_match_reference(self, g, data):
        F = basic_poly_closed(g)
        H = data.draw(invariant_polys(g, max_degree=2 * g.order, max_terms=6))
        G = tensor_step(F, H)
        got = quotient_H(g, G)
        assert got.terms == reference_quotient(F, G).terms == H.terms
        assert_canonical(got)
        assert_canonical(G)

    @pytest.mark.parametrize("g", ROUNDTRIP_GROUPS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_nonmembers_name_the_same_stray_term(self, g, data):
        F = basic_poly_closed(g)
        H = data.draw(invariant_polys(g, max_degree=2 * g.order, max_terms=4))
        nonzero = rationals().filter(lambda c: c != 0)
        stray = data.draw(
            polynomials(g.nvars, max_terms=3, max_exp=g.order + 2, coeffs=nonzero, allow_zero=False)
        )
        G = tensor_step(F, H) + stray
        got = division_outcome(lambda: quotient_H(g, G))
        assert got == division_outcome(lambda: reference_quotient(F, G))
        if stray.degree() < F.degree():  # then it is no multiple of F - 1
            assert got[0] == "stray"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_divisor_lead_coefficient_other_than_one(self, data):
        # every basic polynomial leads with coefficient 1; with a stand-in F
        # that leads with 3/2, a remainder term above the first stray term
        # makes the integer division rescale to stay exact
        F = Polynomial(2, {(3, 0): rat(3, 2), (1, 1): rat(-2, 5), (0, 2): 1})
        H = data.draw(polynomials(2, max_terms=3, max_exp=3))
        P = data.draw(polynomials(2, max_terms=3, max_exp=5))
        G = tensor_step(F, H) + P
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("invsp.transform.basic_poly_closed", lambda g: F)
            got = division_outcome(lambda: quotient_H(GroupSpec.scalar(3, 2), G))
        assert got == division_outcome(lambda: reference_quotient(F, G))
        if P.is_zero():
            assert got == ("ok", H.terms)


class TestPreservation:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hyperplane_constancy_preserved(self, data):
        """F = 1 on the hyperplane forces G = F + H*(F - 1) = 1 there too."""
        g = data.draw(st.sampled_from([GroupSpec.scalar(2, 2), GroupSpec.weighted(5, 2)]))
        F = basic_poly_closed(g)
        seed = data.draw(invariant_polys(g, max_degree=4, max_terms=3))
        F2 = tensor_step(F, seed)  # another polynomial equal to 1 on the line
        H = data.draw(polynomials(2, max_terms=4, max_exp=3))
        assert is_one_on_hyperplane(tensor_step(F2, H))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_invariance_preserved(self, data):
        from invsp.groups import is_invariant

        g = data.draw(st.sampled_from([G7, GroupSpec.weighted(7, 2)]))
        F = basic_poly_closed(g)
        H = data.draw(invariant_polys(g))
        assert is_invariant(g, tensor_step(F, H))


class TestClosureWitnesses:
    """The gamma7 postage-stamp closure to 200 keeps every witness special."""

    @pytest.fixture(scope="class")
    def closed(self):
        base = {}
        for _, h_terms, expected_n in GAMMA7_CATALOG:
            base.setdefault(expected_n, tensor_step(F7, catalog_h(h_terms, 3)))
        return frobenius_closure(base, 200)

    def test_witnesses_are_checked_without_fraction_coefficients(self):
        """Closure, validation and JSON read only the int numerators."""
        base = {}
        for _, h_terms, expected_n in GAMMA7_CATALOG:
            base.setdefault(expected_n, tensor_step(F7, catalog_h(h_terms, 3)))
        closed = frobenius_closure(base, 80)
        for v, G in closed.items():
            assert validate_special(G7, G).is_special and G.term_count() == v
            assert Polynomial.from_json_dict(G.to_json_dict()) == G
        assert all(G._terms is None for G in closed.values())
        for G in closed.values():
            assert_canonical(G)

    def test_every_witness_is_one_on_hyperplane(self, closed):
        assert len(closed) == 170
        bad = [v for v, G in closed.items() if not is_one_on_hyperplane(G)]
        assert bad == []

    def test_restriction_matches_the_reference(self, closed):
        """All 170 witnesses, up to degree 52 and z-degree 16, term for term."""
        assert max(G.degree() for G in closed.values()) == 52
        assert max(mono[2] for G in closed.values() for mono in G.terms) == 16
        bad = [
            v for v, G in closed.items()
            if G.restrict_to_hyperplane().terms != reference_restrict(G).terms
        ]
        assert bad == []

    def test_tiny_high_term_is_not_one_on_hyperplane(self, closed):
        # 10^-30 x^50 scales every other coefficient by 10^30 and restricts
        # to itself, so the restriction is 1 + 10^-30 x^50
        tiny = Polynomial.monomial(3, (50, 0, 0), rat(1, 10**30))
        for v in (17, 200):
            assert not is_one_on_hyperplane(closed[v] + tiny)
            restricted = (closed[v] + tiny).restrict_to_hyperplane()
            assert restricted.terms == {(0, 0): 1, (50, 0): rat(1, 10**30)}

    def test_perturbed_witness_fails(self, closed):
        # moving one coefficient by 1/7 adds (1/7) * x^a y^b (1 - x - y)^c,
        # which is nonzero, to the restriction
        kept = []
        for v, G in closed.items():
            terms = dict(G.terms)
            mono = sorted(terms)[v % len(terms)]
            terms[mono] += rat(1, 7)
            if is_one_on_hyperplane(Polynomial(3, terms)):
                kept.append(v)
        assert kept == []


class TestProductTermBounds:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_lower_bound_on_products(self, m, data):
        """(1+t)^m times 1 + sum c_j t^j has at least m + 1 + #positive terms."""
        F = (Polynomial.one(1) + Polynomial.variable(1, 0)) ** m
        exponents = data.draw(
            st.lists(st.integers(1, 9), min_size=0, max_size=4, unique=True)
        )
        coeffs = data.draw(
            st.lists(rationals(nonneg=True), min_size=len(exponents), max_size=len(exponents))
        )
        p = Polynomial(1, {(0,): 1, **{(e,): c for e, c in zip(exponents, coeffs)}})
        k = sum(1 for c in p.terms.values() if c > 0) - 1
        assert (F * p).term_count() >= m + 1 + k

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_extreme_example(self, m):
        F = (Polynomial.one(1) + Polynomial.variable(1, 0)) ** m
        p = Polynomial(1, {(0,): 1, (1,): 1, (m + 1,): 1})
        assert (F * p).term_count() == 2 * m + 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_middle_term_scaling_equality(self, r, data):
        """Interior scalings of the middle terms add exactly N(F*H) terms."""
        g = GroupSpec.weighted(2 * r + 1, 2)
        F = basic_poly_closed(g)
        lams = {}
        for j in range(1, r + 1):
            c = coefficient_c(r, j)
            pick = data.draw(st.integers(0, 2 * c - 1))
            if pick:
                lams[(2 * r + 1 - 2 * j, j)] = rat(pick, 2)  # 0 <= lam < c
        H = Polynomial(2, lams)
        G = tensor_step(F, H)
        assert G.term_count() == F.term_count() + (F * H).term_count()


class TestIteratedConstructions:
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_multiplicative_counts(self, a):
        f = basic_poly_closed(GroupSpec.weighted(5, 2))
        n = f.term_count()
        g = f
        for _ in range(a - 1):
            g = combine_witness(g, f, full=False)
        assert g.term_count() == a * n
        h = f
        for _ in range(a - 1):
            h = combine_witness(h, f, full=True)
        assert h.term_count() == a * n - (a - 1)
