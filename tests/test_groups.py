"""Group families, invariance congruences, and monomial enumeration."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp.groups import (
    GroupSpec,
    algebra_generators,
    enumerate_invariant_monomials,
    is_invariant,
    is_invariant_monomial,
    parse_group,
    rotate_xyz,
)
from invsp.polycore import DimensionMismatchError, Polynomial
from invsp.rat import rat

G7 = GroupSpec.gamma7()


class TestGroupSpec:
    def test_constructors_and_validation(self):
        assert GroupSpec.scalar(4, 2).nvars == 2
        assert GroupSpec.weighted(11, 2).weights == (1, 2)
        with pytest.raises(ValueError):
            GroupSpec.scalar(1, 1)
        with pytest.raises(ValueError):
            GroupSpec.weighted(9, 3)  # gcd(9, 3) = 3
        with pytest.raises(ValueError):
            GroupSpec.weighted(8, 3)  # even order

    def test_parse_round_trip(self):
        for text in ("scalar:4:2", "weighted:11:2", "gamma7"):
            assert parse_group(text).spec_string() == text
        with pytest.raises(ValueError):
            parse_group("weighted:11")

    def test_json_round_trip(self):
        for g in (GroupSpec.scalar(3, 1), GroupSpec.weighted(7, 2), G7):
            assert GroupSpec.from_json_dict(g.to_json_dict()) == g


class TestInvariance:
    def test_gamma7_examples(self):
        assert is_invariant_monomial(G7, (1, 1, 1))
        assert is_invariant_monomial(G7, (2, 2, 2))
        assert not is_invariant_monomial(G7, (1, 1, 0))

    @pytest.mark.parametrize("r,j", [(2, 1), (3, 2), (5, 3)])
    def test_weighted_middle_monomials(self, r, j):
        g = GroupSpec.weighted(2 * r + 1, 2)
        assert is_invariant_monomial(g, (2 * r + 1 - 2 * j, j))

    def test_scalar_degree_congruence(self):
        g = GroupSpec.scalar(3, 2)
        assert is_invariant_monomial(g, (2, 1))
        assert not is_invariant(g, Polynomial(2, {(1, 0): 1, (0, 1): 1}))

    def test_polynomial_invariance(self):
        from invsp.construct import basic_poly_closed

        assert is_invariant(G7, basic_poly_closed(G7))
        g = GroupSpec.scalar(4, 2)
        assert is_invariant(g, basic_poly_closed(g))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_invariant_monomial(G7, (1, 1))

    @pytest.mark.parametrize(
        "g,stray",
        [
            (GroupSpec.scalar(3, 1), (2,)),
            (GroupSpec.scalar(3, 2), (1, 1)),
            (GroupSpec.weighted(7, 2), (1, 2)),
            (GroupSpec.weighted(11, 3), (2, 2)),
            (G7, (1, 2, 0)),
        ],
        ids=str,
    )
    def test_one_non_invariant_monomial(self, g, stray):
        from invsp.construct import basic_poly

        F = basic_poly(g, "product")  # the only construction for weighted q = 3
        assert is_invariant(g, F)
        assert not is_invariant_monomial(g, stray)
        assert not is_invariant(g, F + Polynomial.monomial(g.nvars, stray, rat(1, 3)))

    @pytest.mark.parametrize("g", [GroupSpec.scalar(3, 1), GroupSpec.weighted(7, 2), G7], ids=str)
    def test_polynomial_dimension_mismatch(self, g):
        for nvars in {1, 2, 3} - {g.nvars}:
            with pytest.raises(DimensionMismatchError):
                is_invariant(g, Polynomial.one(nvars))
            with pytest.raises(DimensionMismatchError):
                is_invariant(g, Polynomial.zero(nvars))


class TestEnumeration:
    def test_gamma7_counts(self):
        assert len(enumerate_invariant_monomials(G7, 6)) == 11
        assert len(enumerate_invariant_monomials(G7, 10)) == 39
        assert enumerate_invariant_monomials(G7, 2) == []

    def test_weighted_count(self):
        g = GroupSpec.weighted(11, 2)
        monos = enumerate_invariant_monomials(g, 10)
        assert monos == [(1, 5), (3, 4), (5, 3), (7, 2), (9, 1)]  # ascending order

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8))
    def test_prefix_consistency(self, d1, d2):
        lo, hi = sorted((d1, d2))
        full = enumerate_invariant_monomials(G7, hi)
        assert [m for m in full if sum(m) <= lo] == enumerate_invariant_monomials(G7, lo)

    def test_all_enumerated_are_invariant(self):
        for g in (G7, GroupSpec.weighted(7, 2), GroupSpec.scalar(3, 2)):
            for mono in enumerate_invariant_monomials(g, 9):
                assert is_invariant_monomial(g, mono)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_closure(self, data):
        monos = enumerate_invariant_monomials(G7, 8)
        a = data.draw(st.sampled_from(monos))
        b = data.draw(st.sampled_from(monos))
        prod = tuple(x + y for x, y in zip(a, b))
        assert is_invariant_monomial(G7, prod)


class TestGenerators:
    def test_gamma7_generators(self):
        gens = algebra_generators(G7)
        assert len(gens) == 11
        assert (1, 1, 1) in gens and (2, 2, 2) not in gens
        assert all(is_invariant_monomial(G7, m) for m in gens)

    def test_weighted_generators(self):
        gens = algebra_generators(GroupSpec.weighted(11, 2))
        expected = {(11, 0), (0, 11), (9, 1), (7, 2), (5, 3), (3, 4), (1, 5)}
        assert set(gens) == expected and len(gens) == 7

    def test_scalar_generators(self):
        assert set(algebra_generators(GroupSpec.scalar(2, 2))) == {
            (2, 0),
            (1, 1),
            (0, 2),
        }

    def test_weighted_q3_refused(self):
        with pytest.raises(ValueError):
            algebra_generators(GroupSpec.weighted(7, 3))

    def test_weighted_q1_generators(self):
        gens = algebra_generators(GroupSpec.weighted(5, 1))
        assert len(gens) == 6  # all monomials of degree 5


def _scales_to_one(phase: int, p: int) -> bool:
    """Non-normative float check that eta^phase = 1 for eta = exp(2 pi i / p)."""
    return abs(cmath.exp(2j * cmath.pi * phase / p) - 1) < 1e-9


class TestCyclotomicSoundness:
    """Invariance congruences agree with root-of-unity scaling (float spot check)."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_scaling_fixes_invariant_monomials(self, data):
        g = data.draw(
            st.sampled_from(
                [G7, GroupSpec.weighted(7, 2), GroupSpec.weighted(11, 2)]
            )
        )
        monos = enumerate_invariant_monomials(g, 8)
        mono = data.draw(st.sampled_from(monos))
        j = data.draw(st.integers(1, g.order))
        phase = sum(w * e for w, e in zip(g.weights, mono)) * j
        assert phase % g.order == 0
        assert _scales_to_one(phase, g.order)

    def test_noninvariant_scaling_moves(self):
        mono = (1, 1, 0)  # weight 3, not divisible by 7
        phase = sum(w * e for w, e in zip(G7.weights, mono))
        assert phase % 7 != 0
        assert not _scales_to_one(phase, 7)


def test_rotation():
    assert rotate_xyz((0, 1, 3)) == (3, 0, 1)
    assert rotate_xyz(rotate_xyz(rotate_xyz((2, 5, 4)))) == (2, 5, 4)
