"""Soundness of the prefix cuts in the sign-region walk.

At every prefix the rotation maps onto itself, the walk cuts the subtree
when a rotated image of the prefix is lexicographically smaller, as then no
region below is canonical.  On the orthant it settles every other prefix
before it descends: it cuts the prefix's whole subtree when propagation
over the prefix's boxes empties a box or leaves a constant slot negative,
or when more slots are positive in every region below than the largest
sought value.  Each region in a subtree cut by the boxes or the window must
be one the region search would dismiss before its first search node, and
every cut subtree is charged all its lattice nodes, so the budget pays
exactly what it paid for the region before.  These tests enumerate the
uncut lattice, check every region the walk leaves out and the tick at which
it yields each one it keeps, and compare the reports with a sweep that cuts
nothing.
"""

import itertools

import pytest

from invsp import sweep
from invsp.affinefamily import build_coefficient_family
from invsp.groups import GroupSpec
from invsp.sweep import run_l0_sweep

from reference_kernels import reference_canonical

G7 = GroupSpec.gamma7()
D13_TARGETS = sorted(set(range(1, 29)) | {31, 35, 36})

# (group, degree of H, sought values, h_degree_exact, orthant); the gamma7
# cases are the ledger's degree 9-13 sweeps (H has degree d - 7), and one
# degree-13 sweep seeking every value to 39, where some prefix has exactly
# as many positive slots as the largest sought value.
CASES = {
    "gamma7-d9": (G7, 2, None, None, True),
    "gamma7-d10": (G7, 3, None, None, True),
    "gamma7-d11": (G7, 4, range(1, 31), 4, True),
    "gamma7-d12": (G7, 5, range(1, 33), 5, True),
    "gamma7-d13": (G7, 6, D13_TARGETS, None, True),
    "gamma7-d13-to-39": (G7, 6, range(1, 40), None, True),
    "cubic-orthant": (GroupSpec.scalar(3, 2), 3, None, None, True),
    "cubic-free-sign": (GroupSpec.scalar(3, 2), 3, None, None, False),
}


def sweep_case(case):
    g, h_degree, sought, h_exact, orthant = CASES[case]
    fam = build_coefficient_family(g, h_degree, "signed")
    comp = sweep._Compiled(fam, orthant)
    sought_set = frozenset(range(len(fam.slots) + 1) if sought is None else sought)
    return fam, comp, sought_set, h_exact


def lattice_regions(comp, perm, h_exact):
    """Every region of the uncut lattice the walk would look at, in order."""
    return [
        sigma
        for sigma in itertools.product(*comp.choices)
        if sweep._region_ok(comp, sigma, h_exact, False)
        and (perm is None or reference_canonical(sigma, perm))
    ]


@pytest.mark.parametrize("case", list(CASES))
def test_cut_regions_need_no_search(case):
    fam, comp, sought_set, h_exact = sweep_case(case)
    perm = sweep._orbit_perm(fam, comp)
    regions = lattice_regions(comp, perm, h_exact)
    walk = sweep._walk(comp, perm, h_exact, False, max(sought_set), 10**30, sweep.SweepStats())
    kept = [sigma for sigma, _ in walk if sigma is not None]
    in_order = iter(regions)
    assert all(sigma in in_order for sigma in kept)  # a subsequence, same order
    kept = set(kept)
    cut = [sigma for sigma in regions if sigma not in kept]
    if comp.orthant:
        assert bool(cut) == (case not in ("gamma7-d9", "gamma7-d10"))
    else:
        assert not cut  # the free-sign walk cuts nothing
    for sigma in cut:
        outcome = sweep._explore_region(comp, sigma, sought_set, 10**9)
        assert outcome.complete and not outcome.found, sigma
        assert outcome.stats.nodes == 0, sigma


# The degree-17 family at the budgets the benchmark and the CLI tests use:
# the walk stops long before it reaches the end of the lattice.
WALK_CASES = [pytest.param(case, 10**30, id=case) for case in CASES] + [
    pytest.param("gamma7-d17", 2000, id="gamma7-d17-budget-2000"),
    pytest.param("gamma7-d17", 5000, id="gamma7-d17-budget-5000"),
]


def walk_case(case):
    if case == "gamma7-d17":
        fam = build_coefficient_family(G7, 10, "signed")
        return fam, sweep._Compiled(fam, True), frozenset({31, 35, 36}), None
    return sweep_case(case)


def lattice_nodes_below(choices):
    """The nodes under a sign prefix of each length, in the uncut lattice."""
    below = [0]
    for signs in reversed(choices):
        below.insert(0, len(signs) * (1 + below[0]))
    return below


def preorder_tick(choices, below, sigma):
    """sigma's pre-order position in the uncut lattice, counting the root as 1."""
    return 1 + sum(
        choices[d].index(s) * (1 + below[d + 1]) + 1 for d, s in enumerate(sigma)
    )


@pytest.mark.parametrize("case,limit", WALK_CASES)
def test_walk_yields_each_region_at_its_lattice_tick(case, limit, monkeypatch):
    """Each cut subtree costs its nodes; the orbit cut leaves out exactly
    the non-canonical regions, up to where the walk stops."""
    fam, comp, sought_set, h_exact = walk_case(case)
    perm = sweep._orbit_perm(fam, comp)
    below = lattice_nodes_below(comp.choices)
    expected = []
    for sigma in itertools.product(*comp.choices):
        tick = preorder_tick(comp.choices, below, sigma)
        if tick > limit:
            break
        if sweep._region_ok(comp, sigma, h_exact, False) and (
            perm is None or reference_canonical(sigma, perm)
        ):
            expected.append((sigma, tick))

    def walk():
        steps = list(sweep._walk(comp, perm, h_exact, False, max(sought_set), limit,
                                 sweep.SweepStats()))
        (last, end), steps = steps[-1], steps[:-1]
        assert last is None
        if limit < 10**30:
            assert end > limit
        else:
            assert end == 1 + below[0]  # every lattice node charged once
        return steps

    kept = walk()
    in_order = iter(expected)
    assert all(step in in_order for step in kept)  # same ticks, same order
    monkeypatch.setattr(sweep._Prefix, "_settle", lambda self, touched, top: None)
    assert walk() == expected


@pytest.mark.parametrize("case", ["gamma7-d12", "gamma7-d13"])
def test_orbit_cut_spares_prefix_settles(case, monkeypatch):
    fam, comp, sought_set, h_exact = sweep_case(case)
    rep = run_l0_sweep(fam, sought=sorted(sought_set), h_degree_exact=h_exact)
    assert rep.exhaustive and rep.stats.pruned_orbit > 0
    settles = []
    settle = sweep._Prefix._settle

    def counting(self, touched, top):
        settles.append(None)
        return settle(self, touched, top)

    monkeypatch.setattr(sweep._Prefix, "_settle", counting)
    perm = sweep._orbit_perm(fam, comp)
    counts = []
    for orbit in (perm, None):
        settles.clear()
        for _ in sweep._walk(comp, orbit, h_exact, False, max(sought_set), 10**30,
                             sweep.SweepStats()):
            pass
        counts.append(len(settles))
    assert counts[0] < counts[1]


def without_stats(report):
    data = report.to_json_dict()
    del data["stats"]
    return data


@pytest.mark.parametrize("case", list(CASES))
def test_reports_match_a_sweep_that_cuts_nothing(case, monkeypatch):
    fam, comp, sought_set, h_exact = sweep_case(case)
    kwargs = dict(orthant=comp.orthant, sought=sorted(sought_set), h_degree_exact=h_exact)
    cutting = run_l0_sweep(fam, **kwargs)
    monkeypatch.setattr(sweep._Prefix, "_settle", lambda self, touched, top: None)
    reference = run_l0_sweep(fam, **kwargs)
    assert reference.stats.pruned_box == reference.stats.pruned_window == 0
    assert reference.stats.regions_total == len(
        lattice_regions(comp, sweep._orbit_perm(fam, comp), h_exact)
    )
    assert cutting.exhaustive and reference.exhaustive
    assert without_stats(cutting) == without_stats(reference)
    for key in ("nodes", "lp_calls", "leaves", "pivots"):
        assert getattr(cutting.stats, key) == getattr(reference.stats, key), key
