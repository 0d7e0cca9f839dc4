"""Affine coefficient families: tables, instantiation, pattern feasibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp import ratlp
from invsp.affinefamily import (
    AffineFamily,
    LinearForm,
    bound_rows,
    build_coefficient_family,
    cross_check_instantiate,
    form_row,
    instantiate,
    pattern_feasible,
)
from invsp.construct import basic_poly_closed, coefficient_c
from invsp.groups import GroupSpec, rotate_xyz
from invsp.polycore import Polynomial
from invsp.rat import rat
from invsp.reference_tables import degree11_reference, degree13_reference
from invsp.transform import tensor_step

from conftest import rationals

G7 = GroupSpec.gamma7()


def table_diff(fam, reference):
    problems = []
    ref_monos = set(reference)
    fam_monos = {s.mono for s in fam.slots}
    problems += [f"missing {m}" for m in ref_monos - fam_monos]
    problems += [f"extra {m}" for m in fam_monos - ref_monos]
    for mono in ref_monos & fam_monos:
        if fam.form_at(mono) != reference[mono]:
            problems.append(f"{mono}: {fam.form_at(mono)} != {reference[mono]}")
    return problems


class TestTableFidelity:
    def test_degree11_matches_reference(self):
        fam = build_coefficient_family(G7, 4, "signed")
        assert fam.param_names == ["U", "B", "C", "D"]
        assert len(fam.slots) == 51
        assert table_diff(fam, degree11_reference()) == []

    def test_degree13_matches_reference(self):
        fam = build_coefficient_family(G7, 6, "signed")
        assert fam.param_names == ["U", "B", "C", "D", "R", "S", "T", "K", "L", "M", "V"]
        assert len(fam.slots) == 79
        assert table_diff(fam, degree13_reference()) == []

    def test_spotlight_forms(self):
        fam = build_coefficient_family(G7, 6, "signed")
        assert fam.form_at((1, 1, 1)) == LinearForm(14, {"U": -1})
        assert fam.form_at((2, 2, 2)) == LinearForm(7, {"U": 14, "V": -1})
        assert fam.form_at((4, 4, 4)) == LinearForm(0, {"R": 7, "S": 7, "T": 7, "V": 7})
        fam4 = build_coefficient_family(G7, 4, "signed")
        assert fam4.form_at((2, 2, 2)) == LinearForm(7, {"U": 14})
        assert fam4.form_at((3, 3, 3)) == LinearForm(0, {"U": 7, "B": 14, "C": 14, "D": 14})

    def test_weighted_family_forms(self):
        r = 5
        g = GroupSpec.weighted(11, 2)
        fam = build_coefficient_family(g, 10, "signed")
        assert len(fam.params) == 5
        for j in range(1, 6):
            mono = (11 - 2 * j, j)
            name = fam.params[[p.mono for p in fam.params].index(mono)].name
            assert fam.form_at(mono) == LinearForm(coefficient_c(r, j), {name: -1})

    def test_sign_modes(self):
        nonneg = build_coefficient_family(G7, 6, "nonneg")
        assert all(p.lo == 0 and not p.structural for p in nonneg.params)
        signed = build_coefficient_family(G7, 6, "signed")
        free = {p.name for p in signed.params if p.effective_lo(True) is None}
        assert free == {"U", "V"}
        # outside the orthant regime even the structural bounds drop away
        assert all(p.effective_lo(False) is None or not p.structural
                   for p in signed.params)

    @pytest.mark.parametrize("mode", ["nonneg_h", "signed_h", "SIGNED", "Nonneg"])
    def test_only_two_sign_mode_spellings(self, mode):
        with pytest.raises(ValueError):
            build_coefficient_family(G7, 2, mode)

    def test_rotation_symmetry_detected(self):
        for h_degree in (3, 4, 5, 6):
            fam = build_coefficient_family(G7, h_degree, "signed")
            perm = fam.symmetry
            assert isinstance(perm, tuple)
            # permutation follows the variable rotation on monomials
            for i, p in enumerate(fam.params):
                assert fam.params[perm[i]].mono == rotate_xyz(p.mono)

    def test_letter_cycle_under_rotation(self):
        fam = build_coefficient_family(G7, 6, "signed")
        perm = fam.symmetry
        names = fam.param_names
        mapping = {names[i]: names[perm[i]] for i in range(len(names))}
        assert mapping == {
            "U": "U", "V": "V",
            "B": "C", "C": "D", "D": "B",
            "R": "S", "S": "T", "T": "R",
            "K": "L", "L": "M", "M": "K",
        }


class TestInstantiate:
    def test_zero_point_gives_basic(self):
        fam = build_coefficient_family(G7, 6, "signed")
        point = {name: 0 for name in fam.param_names}
        G = instantiate(fam, point)
        assert G == basic_poly_closed(G7)
        assert G.term_count() == 17

    def test_known_points(self):
        fam = build_coefficient_family(G7, 4, "signed")
        point = {"U": 14, "B": 0, "C": 0, "D": 0}
        assert instantiate(fam, point).term_count() == 29

    def test_57_term_example(self):
        fam = build_coefficient_family(G7, 6, "signed")
        point = {name: 0 for name in fam.param_names}
        point.update({"U": 13, "V": 182})
        H = fam.h_polynomial(point) + Polynomial(3, {(7, 0, 0): rat(1, 2)})
        G = tensor_step(basic_poly_closed(G7), H)
        assert G.term_count() == 57

    def test_missing_parameter(self):
        fam = build_coefficient_family(G7, 4, "signed")
        with pytest.raises(KeyError):
            instantiate(fam, {"U": 1})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_tensor_step(self, data):
        g = data.draw(
            st.sampled_from([G7, GroupSpec.weighted(7, 2), GroupSpec.scalar(2, 2)])
        )
        h_degree = data.draw(st.integers(2, 6))
        fam = build_coefficient_family(g, h_degree, "signed")
        point = {name: data.draw(rationals()) for name in fam.param_names}
        assert cross_check_instantiate(fam, point)

    def test_json_round_trip(self):
        fam = build_coefficient_family(G7, 4, "signed")
        clone = AffineFamily.from_json_dict(fam.to_json_dict())
        assert clone.param_names == fam.param_names
        assert [(s.mono, s.form) for s in clone.slots] == [
            (s.mono, s.form) for s in fam.slots
        ]
        assert clone.symmetry == fam.symmetry
        point = {name: rat(1, 3) for name in fam.param_names}
        assert instantiate(clone, point) == instantiate(fam, point)


def test_lp_row_builders():
    """Forms and bounds become rows over the parameter columns plus the slack t."""
    assert form_row([(0, 2)], 3, 3, ratlp.EQ) == ([2, 0, 0], ratlp.EQ, -3)
    assert form_row([(0, 2)], 3, 3, ratlp.GE) == ([2, 0, 0], ratlp.GE, -3)
    assert form_row([(1, -1)], rat(1, 2), 3, ratlp.GE, 2) == ([0, -1, -2], ratlp.GE, rat(-1, 2))
    assert bound_rows(0, -1, 4, 3) == [([1, 0, 0], ratlp.GE, -1), ([1, 0, 0], ratlp.LE, 4)]
    assert bound_rows(2, None, 1, 3) == [([0, 0, 1], ratlp.LE, 1)]
    assert bound_rows(1, None, None, 3) == []


class TestPatternFeasible:
    def test_full_vanishing_pattern_for_29(self):
        fam = build_coefficient_family(G7, 4, "signed")
        point = {"U": rat(14), "B": rat(0), "C": rat(0), "D": rat(0)}
        values = fam.evaluate_slots(point)
        zero_set = [i for i, v in enumerate(values) if v == 0]
        assert len(zero_set) == 22
        result = pattern_feasible(fam, zero_set)
        assert result.feasible
        assert result.l0 == 29
        witness_vals = fam.evaluate_slots(result.witness)
        assert [i for i, v in enumerate(witness_vals) if v == 0] == zero_set
        assert all(v > 0 for i, v in enumerate(witness_vals) if i not in zero_set)

    def test_contradictory_pattern(self):
        fam = build_coefficient_family(G7, 4, "signed")
        xyz = fam.slot_index((1, 1, 1))
        squared = fam.slot_index((2, 2, 2))  # 14U + 7 cannot vanish with U = 14
        result = pattern_feasible(fam, [xyz, squared])
        assert not result.feasible

    def test_weighted_zero_h_pattern(self):
        fam = build_coefficient_family(GroupSpec.weighted(11, 2), 10, "signed")
        zero_set = [i for i, s in enumerate(fam.slots) if s.form.const == 0]
        assert len(zero_set) == len(fam.slots) - 7
        result = pattern_feasible(fam, zero_set)
        assert result.feasible and result.l0 == 7
        assert all(v == 0 for v in result.witness.values())

    def test_empty_pattern_interior(self):
        fam = build_coefficient_family(G7, 4, "signed")
        result = pattern_feasible(fam, [])
        assert result.feasible and result.l0 == len(fam.slots)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_witness_pattern_is_exact(self, data):
        """Whenever feasible, the witness vanishes exactly on the zero set."""
        fam = build_coefficient_family(GroupSpec.weighted(7, 2), 6, "signed")
        k = data.draw(st.integers(0, 4))
        zero_set = data.draw(
            st.sets(st.integers(0, len(fam.slots) - 1), min_size=k, max_size=k)
        )
        result = pattern_feasible(fam, zero_set)
        if result.feasible:
            values = fam.evaluate_slots(result.witness)
            assert {i for i, v in enumerate(values) if v == 0} == set(zero_set)
            lam_by_mono = {p.mono: result.witness[p.name] for p in fam.params}
            for (a, b), lam in lam_by_mono.items():
                assert 0 <= lam <= coefficient_c(3, b)


class TestSparsityMapExample:
    """The two-variable quadratic family is the affine map
    (A,B,C) -> (1-A, 2-B, 1-C, A, 2A+B, A+2B+C, B+2C, C)."""

    @pytest.fixture()
    def fam(self):
        return build_coefficient_family(GroupSpec.scalar(2, 2), 2, "signed")

    def test_forms(self, fam):
        by_mono = {s.mono: s.form for s in fam.slots}
        names = {p.mono: p.name for p in fam.params}
        A, B, C = names[(2, 0)], names[(1, 1)], names[(0, 2)]
        assert by_mono[(2, 0)] == LinearForm(1, {A: -1})
        assert by_mono[(1, 1)] == LinearForm(2, {B: -1})
        assert by_mono[(0, 2)] == LinearForm(1, {C: -1})
        assert by_mono[(4, 0)] == LinearForm(0, {A: 1})
        assert by_mono[(3, 1)] == LinearForm(0, {A: 2, B: 1})
        assert by_mono[(2, 2)] == LinearForm(0, {A: 1, B: 2, C: 1})
        assert by_mono[(1, 3)] == LinearForm(0, {B: 1, C: 2})
        assert by_mono[(0, 4)] == LinearForm(0, {C: 1})

    def test_pointwise_sparsity(self, fam):
        names = {p.mono: p.name for p in fam.params}

        def l0(a, b, c):
            pt = {names[(2, 0)]: a, names[(1, 1)]: b, names[(0, 2)]: c}
            return sum(1 for v in fam.evaluate_slots(pt) if v != 0)

        assert l0(0, 0, 0) == 3
        assert l0(1, -2, 1) == 4
        assert l0(1, 2, 1) == 5


class TestDominationExamples:
    def test_basic_polynomial_dominates_its_core_term(self):
        from invsp.polycore import dominates

        small = Polynomial(3, {(1, 1, 1): 14})
        too_big = Polynomial(3, {(1, 1, 1): 15})
        F = basic_poly_closed(G7)
        assert dominates(small, F)
        assert not dominates(too_big, F)


def test_public_names_resolve():
    import invsp

    for name in invsp.__all__:
        assert getattr(invsp, name) is not None, name


class TestNonnegModeFloor:
    def test_no_pattern_below_basic_term_count(self):
        """With H restricted nonnegative, nothing sparser than F appears."""
        from invsp.sweep import run_l0_sweep

        fam = build_coefficient_family(G7, 6, "nonneg")
        rep = run_l0_sweep(fam, sought=range(1, 17))
        assert rep.exhaustive and not rep.achievable
