"""Dual-route validation of the sweep engine.

For families small enough to enumerate every subset of slots, the
achievable sparsity values are recomputed the slow way: ask the direct
single-pattern LP oracle about all 2^n zero sets and collect the counts.
The sweep must produce exactly the same value set, in both the orthant
(strictly positive rest) and free-sign regimes.  A sampling pass then
confirms that randomly instantiated points never realize a value the
sweep failed to report.  Last, the exact witness points of the cubic
scalar family are pinned to a fixture: the LP follows a fixed pivot rule,
so any change to the LP layer must reproduce them bit for bit.  Settling
each region against only the values still undecided keeps them too.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp import sweep
from invsp.affinefamily import build_coefficient_family, pattern_feasible
from invsp.groups import GroupSpec
from invsp.sweep import run_l0_sweep

from conftest import rationals


def brute_force_values(fam, orthant):
    n = len(fam.slots)
    values = set()
    for k in range(n + 1):
        for zero_set in combinations(range(n), k):
            if (n - k) in values:
                continue  # only the achievable count matters here
            if pattern_feasible(fam, zero_set, orthant=orthant).feasible:
                values.add(n - k)
    return values


@pytest.mark.parametrize("orthant", [True, False])
def test_weighted_family_matches_brute_force(orthant):
    fam = build_coefficient_family(GroupSpec.weighted(5, 2), 4, "signed")
    assert len(fam.slots) == 10
    rep = run_l0_sweep(fam, orthant=orthant)
    assert rep.exhaustive
    assert set(rep.achievable) == brute_force_values(fam, orthant)


@pytest.mark.parametrize("orthant", [True, False])
def test_quadratic_family_matches_brute_force(orthant):
    fam = build_coefficient_family(GroupSpec.scalar(2, 2), 2, "signed")
    assert len(fam.slots) == 8
    rep = run_l0_sweep(fam, orthant=orthant)
    assert rep.exhaustive
    assert set(rep.achievable) == brute_force_values(fam, orthant)


def test_cubic_scalar_family_matches_brute_force():
    fam = build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")
    assert len(fam.slots) <= 12
    rep = run_l0_sweep(fam, orthant=True)
    assert rep.exhaustive
    assert set(rep.achievable) == brute_force_values(fam, True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_points_never_beat_the_sweep(data):
    """Any instantiated point's nonzero count must appear in the sweep set."""
    fam = build_coefficient_family(GroupSpec.weighted(5, 2), 4, "signed")
    rep = run_l0_sweep(fam, orthant=False)
    point = {p.name: data.draw(rationals(nonneg=False)) for p in fam.params}
    count = sum(1 for v in fam.evaluate_slots(point) if v != 0)
    assert count in rep.achievable


WITNESSES = json.loads(
    (Path(__file__).parent / "fixtures" / "sparsity_cubic_witnesses.json").read_text()
)


@pytest.mark.parametrize("orthant", [True, False])
def test_cubic_scalar_witnesses_are_pinned(orthant):
    fam = build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")
    rep = run_l0_sweep(fam, orthant=orthant)
    expected = WITNESSES["orthant" if orthant else "free_sign"]
    assert rep.to_json_dict()["achievable"] == expected


@pytest.mark.parametrize(
    "orthant, lp_calls, pivots", [(True, 108, 206), (False, 191, 390)], ids=["orthant", "free-sign"]
)
def test_cubic_scalar_sweep_pivot_counts(orthant, lp_calls, pivots):
    """A region's first LP starts from the slack basis and every later one
    from its parent's optimal tableau, so the LP calls and pivots of the
    cubic sweep are pinned for each regime."""
    fam = build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")
    rep = run_l0_sweep(fam, orthant=orthant)
    assert rep.stats.lp_calls == lp_calls
    assert rep.stats.pivots == pivots


@pytest.mark.parametrize("orthant", [True, False])
def test_regions_seek_only_undecided_values(orthant, monkeypatch):
    """No region searches for a value an earlier region has witnessed."""
    witnessed, overlaps = set(), []
    explore = sweep._explore_region

    def spy(comp, sigma, leaf, found, remaining, budget, stats):
        overlaps.append(remaining & witnessed)
        explore(comp, sigma, leaf, found, remaining, budget, stats)
        witnessed.update(found)

    monkeypatch.setattr(sweep, "_explore_region", spy)
    fam = build_coefficient_family(GroupSpec.scalar(3, 2), 3, "signed")
    rep = run_l0_sweep(fam, orthant=orthant)
    assert overlaps and not any(overlaps)
    expected = WITNESSES["orthant" if orthant else "free_sign"]
    values = range(len(fam.slots) + 1)
    report = rep.to_json_dict()
    del report["stats"]
    assert report == {
        "achievable": expected,
        "sought": list(values),
        "certified_absent": [v for v in values if str(v) not in expected],
        "exhaustive": True,
    }
