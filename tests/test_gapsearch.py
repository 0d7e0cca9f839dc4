"""Achievability sweeps, the postage-stamp closure, and gap certification."""

from dataclasses import asdict

import pytest

from invsp import gapsearch, ratlp, sweep
from invsp.affinefamily import AffineFamily, build_coefficient_family, cross_check_instantiate
from invsp.construct import basic_poly_closed
from invsp.gapsearch import (
    GAMMA7_CATALOG,
    N1_LIMIT,
    achievable_set,
    catalog_h,
    closure_frontier,
    combine_witness,
    frobenius_closure,
    search_targets,
    verify_fixtures,
    verify_gap_theorem,
)
from invsp.groups import GroupSpec
from invsp.polycore import Polynomial
from invsp.rat import rat
from invsp.sweep import run_l0_sweep
from invsp.transform import tensor_step, validate_special

from reference_kernels import reference_canonical

G7 = GroupSpec.gamma7()
F7 = basic_poly_closed(G7)
STATS_KEYS = {"nodes", "lp_calls", "regions_total", "regions_explored",
              "regions_infeasible", "leaves", "pivots", "pruned_box", "pruned_window",
              "pruned_orbit"}


class TestSweeps:
    def test_degree10_complete_set(self):
        rep = achievable_set(G7, 10, "signed")
        assert rep.exhaustive
        assert sorted(rep.achievable) == [17, 29, 30]
        for value, H in rep.achievable.items():
            G = tensor_step(F7, H)
            assert validate_special(G7, G).is_special
            assert G.term_count() == value

    def test_degree9_only_basic(self):
        rep = achievable_set(G7, 9, "signed")
        assert rep.exhaustive and sorted(rep.achievable) == [17]

    def test_degree11_top_degree_floor(self):
        rep = achievable_set(
            G7, 11, "signed", targets=range(1, 31), h_degree_exact=4
        )
        assert rep.exhaustive and not rep.achievable

    def test_degree12_top_degree_floor(self):
        rep = achievable_set(
            G7, 12, "signed", targets=range(1, 33), h_degree_exact=5
        )
        assert rep.exhaustive and not rep.achievable

    def test_degree13_floor(self):
        sought = sorted(set(range(1, 29)) | {31, 35, 36})
        rep = achievable_set(G7, 13, "signed", targets=sought)
        assert rep.exhaustive
        assert sorted(rep.achievable) == [17]
        assert rep.achievable[17].is_zero()
        assert set(rep.proven_gaps) == set(sought) - {17}

    def test_monotone_in_degree(self):
        g = GroupSpec.weighted(7, 2)
        small = achievable_set(g, 9, "signed", targets=range(26))
        large = achievable_set(g, 13, "signed", targets=range(26))
        assert small.exhaustive and large.exhaustive
        assert set(small.achievable) <= set(large.achievable)

    def test_weighted_low_range(self):
        g = GroupSpec.weighted(11, 2)
        rep = achievable_set(
            g, 21, "signed", targets=range(1, 13), skip_all_zero=True
        )
        assert rep.exhaustive and not rep.achievable
        rep2 = achievable_set(g, 21, "signed", targets=[13, 14])
        assert rep2.exhaustive and sorted(rep2.achievable) == [13, 14]

    def test_budget_exhaustion_reported(self):
        rep = achievable_set(G7, 17, "signed", targets=[31, 35, 36], budget=2000)
        assert not rep.exhaustive
        assert rep.proven_gaps == []


class TestClosure:
    def test_single_base_17(self):
        closed = frobenius_closure({17: F7}, 200)
        values = set(closed)
        assert {17, 33, 34, 49, 50, 51}.issubset(values)
        assert {18, 31, 32, 35, 36, 48}.isdisjoint(values)
        for value in (33, 34, 49, 51):
            G = closed[value]
            assert validate_special(G7, G).is_special
            assert G.term_count() == value

    def test_catalog_base_covers_everything_from_37(self):
        base = {}
        for name, h_terms, expected in GAMMA7_CATALOG:
            base.setdefault(expected, tensor_step(F7, catalog_h(h_terms, 3)))
        closed = frobenius_closure(base, 200)
        assert all(v in closed for v in range(37, 201))
        assert closure_frontier(closed, 17) == 37
        assert {31, 35, 36}.isdisjoint(closed)

    def test_idempotent_and_monotone(self):
        base = {17: F7}
        once = frobenius_closure(base, 120)
        twice = frobenius_closure(once, 120)
        assert set(once) == set(twice)
        bigger = frobenius_closure({17: F7, 29: tensor_step(F7, Polynomial(3, {(1, 1, 1): 14}))}, 120)
        assert set(once) <= set(bigger)

    def test_combine_counts(self):
        f = basic_poly_closed(GroupSpec.weighted(5, 2))
        assert combine_witness(f, f, full=False).term_count() == 8
        assert combine_witness(f, f, full=True).term_count() == 7

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            frobenius_closure({}, 10)


class TestFixtures:
    def test_gamma7_catalog_names_and_values(self):
        names = [name for name, _, _ in GAMMA7_CATALOG]
        assert len(names) == 27
        values = sorted(n for _, _, n in GAMMA7_CATALOG)
        assert values == [17, 29, 30, 32, 33, 34] + list(range(37, 58))

    def test_all_fixtures_pass(self):
        for g in (G7, GroupSpec.weighted(11, 2), GroupSpec.scalar(2, 2)):
            for result in verify_fixtures(g):
                assert result.passed, (result.name, result.detail)

    def test_cancellation_detail(self):
        H = catalog_h([(False, 14, (1, 1, 1)), (False, 203, (2, 2, 2))], 3)
        G = tensor_step(F7, H)
        assert G.coefficient((2, 2, 2)) == 0
        assert G.term_count() == 41


class TestGapTheorems:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_weighted(self, r):
        rep = verify_gap_theorem(GroupSpec.weighted(2 * r + 1, 2))
        assert rep.all_passed and rep.exhaustive
        assert rep.frontier == 2 * r + 3
        assert rep.gaps == [v for v in range(1, 2 * r + 3) if v != r + 2]
        assert set(range(2 * r + 3, 10 * (r + 2) + 1)).issubset(rep.achievable)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_scalar_dimension_two(self, m):
        rep = verify_gap_theorem(GroupSpec.scalar(m, 2))
        assert rep.all_passed and rep.exhaustive
        assert rep.frontier == 2 * m + 1
        assert rep.gaps == [v for v in range(1, 2 * m + 1) if v != m + 1]

    def test_scalar_dimension_one(self):
        rep = verify_gap_theorem(GroupSpec.scalar(4, 1))
        assert rep.all_passed
        assert sorted(rep.achievable) == list(range(1, N1_LIMIT + 1))

    def test_gamma7(self):
        """The undecided triple is derived: below the frontier, neither reached nor a gap."""
        rep = verify_gap_theorem(G7)
        assert rep.all_passed and rep.exhaustive
        assert rep.undecided == [31, 35, 36]
        assert rep.frontier == 37
        assert rep.gaps == [v for v in range(1, 29) if v != 17]
        below = {v for v in rep.achievable if v < 37}
        assert below == {17, 29, 30, 32, 33, 34}

    @pytest.mark.parametrize("g", [GroupSpec.scalar(3, 2), G7], ids=str)
    def test_no_gap_without_an_exhaustive_sweep(self, g):
        rep = verify_gap_theorem(g, budget=10)
        assert not rep.exhaustive and not rep.all_passed
        assert rep.gaps == []

    @pytest.mark.parametrize(
        "g,bound,start",
        [(GroupSpec.scalar(3, 1), 0, 1), (GroupSpec.weighted(5, 2), 6, 7)],
        ids=str,
    )
    def test_closure_bound_below_the_frontier_fails_the_frontier_check(self, g, bound, start):
        """[start, bound] is empty, so it cannot show that every N from start on is reached."""
        rep = verify_gap_theorem(g, closure_bound=bound)
        frontier = next(c for c in rep.checks if c.name.endswith("-frontier"))
        assert not frontier.passed and not rep.all_passed
        assert frontier.detail == f"closure bound {bound} is below the frontier {start}"

    def test_gamma7_undecided_is_derived_from_the_witnesses(self, monkeypatch):
        """Without the 32-term witness, 32 joins the values below the frontier left open."""
        catalog = [entry for entry in gapsearch.GAMMA7_CATALOG if entry[0] != "n32"]
        monkeypatch.setattr(gapsearch, "GAMMA7_CATALOG", catalog)
        rep = verify_gap_theorem(G7)
        assert rep.frontier == 37
        assert rep.undecided == [31, 32, 35, 36]


class TestSearchTargets:
    def test_find_29_at_degree_10(self):
        rep = search_targets(G7, [29], 10)
        assert rep.exhaustive and 29 in rep.found
        H = rep.found[29]
        assert H == Polynomial(3, {(1, 1, 1): 14})

    def test_undecided_triple_scoped(self):
        rep = search_targets(G7, [31, 35, 36], 13)
        assert rep.exhaustive and not rep.found
        assert not rep.unconditional  # degree 17 would be needed for a final answer

    def test_budgeted_open_problem_is_inconclusive(self):
        rep = search_targets(G7, [31, 35, 36], 17, budget=2000)
        assert not rep.exhaustive and not rep.unconditional

    def test_signed_hunt_runs_honestly(self):
        rep = search_targets(GroupSpec.scalar(4, 2), [8], 8, budget=20000)
        for value, H in rep.found.items():
            G = tensor_step(basic_poly_closed(GroupSpec.scalar(4, 2)), H)
            assert validate_special(GroupSpec.scalar(4, 2), G).is_special
            assert G.term_count() == value


class TestSweepEngineEdges:
    def test_family_without_params(self):
        fam = build_coefficient_family(G7, 0, "signed")
        rep = run_l0_sweep(fam)
        assert rep.exhaustive and sorted(rep.achievable) == [17]

    def test_skip_all_zero(self):
        fam = build_coefficient_family(G7, 3, "signed")
        rep = run_l0_sweep(fam, skip_all_zero=True)
        assert sorted(rep.achievable) == [29, 30]

    @pytest.mark.parametrize("orthant", [True, False])
    def test_stats_count_every_lp_call_and_pivot(self, orthant, monkeypatch):
        """Cold solves and warm re-optimizations are both LP calls."""
        seen = {"calls": 0, "pivots": 0, "solve_lp": 0, "add_rows": 0}

        def counting(name):
            solver = getattr(ratlp, name)

            def wrapped(*args, **kwargs):
                res = solver(*args, **kwargs)
                seen[name] += 1
                seen["calls"] += 1
                seen["pivots"] += res.pivots
                return res

            monkeypatch.setattr(ratlp, name, wrapped)

        counting("solve_lp")
        counting("add_rows")
        fam = build_coefficient_family(GroupSpec.scalar(2, 2), 2, "signed")
        rep = run_l0_sweep(fam, orthant=orthant)
        assert seen["solve_lp"] > 0 and seen["add_rows"] > 0
        assert rep.stats.lp_calls == seen["calls"]
        assert rep.stats.pivots == seen["pivots"] > 0
        stats = rep.to_json_dict()["stats"]
        assert set(stats) == STATS_KEYS
        assert stats["pivots"] == seen["pivots"]

    def test_achievability_json_reports_pivots(self):
        rep = achievable_set(G7, 10, "signed")
        assert rep.to_json_dict()["stats"]["pivots"] == rep.stats.pivots > 0

    def test_every_report_writes_the_whole_stats_block(self):
        fam = build_coefficient_family(G7, 1, "signed")
        reports = [
            run_l0_sweep(fam),
            achievable_set(G7, 10, "signed"),
            search_targets(G7, [29], 10),
        ]
        for rep in reports:
            stats = rep.to_json_dict()["stats"]
            assert set(stats) == STATS_KEYS, type(rep).__name__
            assert stats == asdict(rep.stats)

    @staticmethod
    def edited_h4(name, key, value):
        """The gamma7 h4 family with one parameter's bound edited in its JSON."""
        data = build_coefficient_family(G7, 4, "signed").to_json_dict()
        for param in data["params"]:
            if param["name"] == name:
                param[key] = value
        return AffineFamily.from_json_dict(data)

    def test_orbit_cut_on_the_unedited_family(self):
        fam = build_coefficient_family(G7, 4, "signed")
        cut = run_l0_sweep(fam)
        fam.symmetry = None
        full = run_l0_sweep(fam)
        assert cut.stats.pruned_orbit == 9 and full.stats.pruned_orbit == 0
        assert cut.exhaustive and full.exhaustive
        assert cut.achievable == full.achievable
        assert cut.certified_absent == full.certified_absent

    @pytest.mark.parametrize("name,hi", [("D", "0"), ("D", "1"), ("C", "0")])
    def test_orbit_cut_needs_rotation_invariant_bounds(self, name, hi):
        """One bounded parameter breaks the rotation's symmetry of the bounds."""
        fam = self.edited_h4(name, "hi", hi)
        assert fam.symmetry is None  # although the slot forms are still symmetric
        rep = run_l0_sweep(fam)
        assert rep.exhaustive and rep.stats.pruned_orbit == 0
        assert {32, 37, 42} <= set(rep.achievable)
        # the rotation of the forms alone, used anyway, cuts witnesses away
        fam.symmetry = build_coefficient_family(G7, 4, "signed").symmetry
        unsound = run_l0_sweep(fam)
        assert unsound.to_json_dict() != rep.to_json_dict()
        assert set(unsound.achievable) < set(rep.achievable)

    def test_orbit_cut_needs_rotation_invariant_structural_flags(self):
        """A structural flag differing within an orbit gives up the cut, not an answer."""
        fam = self.edited_h4("B", "structural", False)
        assert fam.symmetry is None
        edited = run_l0_sweep(fam)
        unedited = run_l0_sweep(build_coefficient_family(G7, 4, "signed"))
        assert edited.exhaustive and unedited.exhaustive
        assert set(edited.achievable) == set(unedited.achievable)
        assert edited.certified_absent == unedited.certified_absent
        assert edited.stats.pruned_orbit == 0 and unedited.stats.pruned_orbit == 9
        assert edited.stats.regions_total == 17 and unedited.stats.regions_total == 9

    def test_h_degree_exact_needs_a_parameter_of_that_degree(self):
        """With no such parameter no region qualifies, and an absence would be vacuous."""
        fam = build_coefficient_family(G7, 4, "signed")
        with pytest.raises(ValueError, match="no parameter has degree 0"):
            run_l0_sweep(fam, h_degree_exact=0)
        assert run_l0_sweep(fam, h_degree_exact=4).exhaustive
        # skipping H = 0 with no parameter at all stays allowed: vacuously true
        empty = build_coefficient_family(G7, 0, "signed")
        assert not empty.params
        assert run_l0_sweep(empty, skip_all_zero=True).exhaustive

    def test_achievable_set_validates_the_reported_witness(self, monkeypatch):
        """The H reported is the H validated: a wrong H fails, not slips through."""
        h_polynomial = AffineFamily.h_polynomial
        monkeypatch.setattr(
            AffineFamily, "h_polynomial", lambda fam, point: h_polynomial(fam, point) * 2
        )
        with pytest.raises(AssertionError, match="failed validation"):
            achievable_set(G7, 10, "signed")

    @staticmethod
    def cubic_free_sign_point():
        """H = (y - x)^3: its G has 6 terms, with m0_3 and m3_0 of both signs."""
        fam = build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")
        point = {p.name: rat(0) for p in fam.params}
        point.update(m0_3=rat(1), m1_2=rat(-3), m2_1=rat(3), m3_0=rat(-1))
        return fam, point

    def test_cubic_free_sign_has_a_six_term_point(self):
        fam, point = self.cubic_free_sign_point()
        assert cross_check_instantiate(fam, point)
        G = tensor_step(basic_poly_closed(fam.group), fam.h_polynomial(point))
        rep = validate_special(fam.group, G)
        assert rep.invariant and rep.constant_on_hyperplane and rep.zero_at_origin
        assert G.term_count() == 6

    @pytest.mark.xfail(
        strict=True,
        reason="the free-sign sweep takes sign choices from the declared lower "
        "bound, so a structural parameter is never tried negative",
    )
    def test_cubic_free_sign_sweep_witnesses_six(self):
        fam, _ = self.cubic_free_sign_point()
        rep = run_l0_sweep(fam, orthant=False)
        assert 6 in rep.achievable and 6 not in rep.certified_absent


class TestSignRegionWalk:
    """One lazy walk over sign regions, under one global budget."""

    @staticmethod
    def cubic():
        return build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")

    @staticmethod
    def degree17():
        return build_coefficient_family(G7, 10, "signed")

    def test_small_budget_cuts_a_small_lattice(self):
        rep = run_l0_sweep(self.cubic(), orthant=False, budget=10)
        assert not rep.exhaustive
        assert rep.certified_absent == []

    @staticmethod
    def sweep_nodes(fam, orthant, sought=None):
        """(lattice nodes, search nodes) of the full sweep, and its report."""
        full = run_l0_sweep(fam, orthant=orthant, sought=sought)
        assert full.exhaustive
        lattice_nodes, width = 1, 1
        for choices in sweep._Compiled(fam, orthant).choices:
            width *= len(choices)
            lattice_nodes += width
        return lattice_nodes, full.stats.nodes, full

    @pytest.mark.parametrize("orthant", [True, False])
    def test_budget_counts_lattice_and_search_nodes(self, orthant):
        fam = self.cubic()
        lattice_nodes, search_nodes, full = self.sweep_nodes(fam, orthant)
        need = lattice_nodes + search_nodes
        assert run_l0_sweep(fam, orthant=orthant, budget=need).to_json_dict() == (
            full.to_json_dict()
        )
        assert not run_l0_sweep(fam, orthant=orthant, budget=need - 1).exhaustive

    def test_budget_counts_cut_subtrees(self):
        """A subtree cut at a prefix costs exactly its lattice nodes."""
        fam = build_coefficient_family(G7, 6, "signed")
        sought = sorted(set(range(1, 29)) | {31, 35, 36})
        lattice_nodes, search_nodes, full = self.sweep_nodes(fam, True, sought)
        assert full.stats.pruned_box and full.stats.pruned_window
        need = lattice_nodes + search_nodes
        rep = run_l0_sweep(fam, sought=sought, budget=need)
        assert rep.to_json_dict() == full.to_json_dict()
        assert not run_l0_sweep(fam, sought=sought, budget=need - 1).exhaustive

    @pytest.mark.parametrize("orthant", [True, False])
    def test_budget_spent_after_the_last_witness_keeps_the_sweep_exhaustive(self, orthant):
        """The region that witnesses 7 runs out of budget on its next node."""
        fam = self.cubic()
        rep = run_l0_sweep(fam, orthant=orthant, sought=[7], budget=9)
        assert rep.exhaustive and sorted(rep.achievable) == [7]
        assert rep.certified_absent == []
        assert run_l0_sweep(fam, orthant=orthant, sought=[7], budget=10).to_json_dict() == (
            rep.to_json_dict()
        )
        assert run_l0_sweep(fam, orthant=orthant, sought=[], budget=0).exhaustive

    def test_no_prefix_is_settled_once_the_budget_is_spent(self, monkeypatch):
        budgets, spent_at_settle = [], []

        class Recorded(sweep._Budget):
            def __init__(self, limit):
                super().__init__(limit)
                budgets.append(self)

        child = sweep._Prefix.child

        def spy(self, *args):
            spent_at_settle.append(budgets[-1].spent)
            return child(self, *args)

        monkeypatch.setattr(sweep, "_Budget", Recorded)
        monkeypatch.setattr(sweep._Prefix, "child", spy)
        fam = build_coefficient_family(GroupSpec.scalar(2, 2), 4, "signed")
        rep = run_l0_sweep(fam, orthant=True, budget=300)
        assert not rep.exhaustive and budgets[-1].spent > 300
        assert spent_at_settle and max(spent_at_settle) <= 300

    @pytest.mark.parametrize("runs", [1, 2])
    def test_sweep_stops_once_every_value_is_witnessed(self, runs):
        """A repeated sweep of one family in one process stops just as soon."""
        fam = self.degree17()
        for _ in range(runs):
            rep = run_l0_sweep(fam, sought=[17])
            assert sorted(rep.achievable) == [17]
            assert rep.exhaustive and rep.certified_absent == []
            assert rep.stats.regions_total == 1

    @pytest.mark.parametrize("cut", [10, "half", "full"])
    @pytest.mark.parametrize("orthant", [True, False])
    def test_budget_cuts_the_sweep(self, orthant, cut):
        """``half`` stops in mid-search after some values are found."""
        fam = self.cubic()
        budget = cut
        if cut != 10:
            lattice_nodes, search_nodes, _ = self.sweep_nodes(fam, orthant)
            budget = lattice_nodes + search_nodes // (2 if cut == "half" else 1)
        rep = run_l0_sweep(fam, orthant=orthant, budget=budget)
        if cut == "full":
            assert rep.exhaustive
        else:
            assert not rep.exhaustive
        if cut == "half":
            assert rep.achievable

    def test_degree17_explores_only_canonical_regions(self, monkeypatch):
        seen = []
        explore = sweep._explore_region

        def spy(comp, sigma, leaf, found, remaining, budget, stats):
            seen.append(sigma)
            explore(comp, sigma, leaf, found, remaining, budget, stats)

        monkeypatch.setattr(sweep, "_explore_region", spy)
        fam = self.degree17()
        rep = run_l0_sweep(fam, sought=[31, 35, 36], budget=2000)
        assert not rep.exhaustive
        assert seen and len(seen) == rep.stats.regions_explored
        assert all(reference_canonical(sigma, fam.symmetry) for sigma in seen)


class TestUnconditionalScope:
    def test_low_target_is_settled_outright(self):
        # a count of 18 could only occur in degree up to 8, so a degree-13
        # sweep settles it for good
        rep = search_targets(G7, [18], 13)
        assert rep.exhaustive and not rep.found and rep.unconditional

    def test_high_target_stays_scoped(self):
        rep = search_targets(G7, [36], 13)
        assert rep.exhaustive and not rep.found and not rep.unconditional
