"""Soundness of the prefix cuts in the sign-region walk.

At every prefix the rotation maps onto itself, the walk cuts the subtree
when a rotated image of the prefix is lexicographically smaller, as then no
region below is canonical.  It settles every other prefix, the full length
included, before it descends: it cuts the prefix's whole subtree when more
slots are nonzero in every region below than the largest sought value, or,
on the orthant, when propagation over the prefix's boxes empties a box or
leaves a constant slot negative.  Each region in a subtree cut by the boxes
or the window must be one the region search would dismiss before its first
search node, and every cut subtree is charged all its lattice nodes, so the
budget pays exactly what it paid for the region before.  A region the walk
keeps must reach the region search settled as ``reference_region`` settles
it from scratch.  A child settles from its parent's boxes, which only
shrink down the walk, and evaluates again only the slots its sign reaches;
a count of interval evaluations pins that.  These tests enumerate the uncut
lattice, check every region the walk leaves out, every leaf it settles, and
the tick at which it yields each region it keeps, and compare the reports
with a sweep that cuts nothing and settles every region from scratch.
"""

import itertools

import pytest

from invsp import sweep
from invsp.affinefamily import (
    AffineFamily,
    LinearForm,
    ParamSpec,
    SlotSpec,
    build_coefficient_family,
)
from invsp.groups import GroupSpec
from invsp.rat import rat
from invsp.sweep import run_l0_sweep

from reference_kernels import reference_canonical, reference_region

G7 = GroupSpec.gamma7()
D13_TARGETS = sorted(set(range(1, 29)) | {31, 35, 36})

# (group, degree of H, sought values, h_degree_exact, orthant); the gamma7
# cases are the ledger's degree 9-13 sweeps (H has degree d - 7), and one
# degree-13 sweep seeking every value to 39, where some prefix has exactly
# as many positive slots as the largest sought value.  The narrow free-sign
# case is one where the window cuts without propagation.
CASES = {
    "gamma7-d9": (G7, 2, None, None, True),
    "gamma7-d10": (G7, 3, None, None, True),
    "gamma7-d11": (G7, 4, range(1, 31), 4, True),
    "gamma7-d12": (G7, 5, range(1, 33), 5, True),
    "gamma7-d13": (G7, 6, D13_TARGETS, None, True),
    "gamma7-d13-to-39": (G7, 6, range(1, 40), None, True),
    "cubic-orthant": (GroupSpec.scalar(3, 2), 3, None, None, True),
    "cubic-free-sign": (GroupSpec.scalar(3, 2), 3, None, None, False),
    "cubic-free-sign-narrow": (GroupSpec.scalar(3, 2), 3, [4, 5, 6], None, False),
}
UNCUT = ("gamma7-d9", "gamma7-d10", "cubic-free-sign")  # lattices no settle cuts


def sweep_case(case):
    g, h_degree, sought, h_exact, orthant = CASES[case]
    fam = build_coefficient_family(g, h_degree, "signed")
    comp = sweep._Compiled(fam, orthant)
    sought_set = frozenset(range(len(fam.slots) + 1) if sought is None else sought)
    return fam, comp, sought_set, h_exact


def needed(fam, h_exact):
    """The parameters of which a region must have a nonzero one, or None."""
    if h_exact is None:
        return None
    return [i for i, p in enumerate(fam.params) if p.degree == h_exact]


def degree_ok(fam, sigma, h_exact):
    """Whether region sigma has a nonzero parameter of degree h_exact (if one is given)."""
    return h_exact is None or any(
        s != 0 and p.degree == h_exact for s, p in zip(sigma, fam.params)
    )


def lattice_regions(fam, comp, perm, h_exact):
    """Every region of the uncut lattice the walk would look at, in order."""
    return [
        sigma
        for sigma in itertools.product(*comp.choices)
        if degree_ok(fam, sigma, h_exact) and (perm is None or reference_canonical(sigma, perm))
    ]


def reaches_sought(ref, sought_set):
    """Whether the region search would spend a node on a region so settled."""
    if ref is None:
        return False  # empty
    n_base, _, _, ambiguous = ref
    return any(n_base <= v <= n_base + len(ambiguous) for v in sought_set)


@pytest.mark.parametrize("case", list(CASES))
def test_cut_regions_need_no_search(case):
    fam, comp, sought_set, h_exact = sweep_case(case)
    perm = fam.symmetry
    regions = lattice_regions(fam, comp, perm, h_exact)
    walk = sweep._walk(comp, perm, needed(fam, h_exact), max(sought_set), sweep._Budget(10**30),
                       sweep.SweepStats())
    kept = [sigma for sigma, _ in walk]
    in_order = iter(regions)
    assert all(sigma in in_order for sigma in kept)  # a subsequence, same order
    kept = set(kept)
    cut = [sigma for sigma in regions if sigma not in kept]
    assert bool(cut) == (case not in UNCUT)
    for sigma in cut:
        assert not reaches_sought(reference_region(comp, sigma), sought_set), sigma


def settled_leaves(comp, top):
    """(sigma, leaf, rule) for every region of the lattice no shorter prefix cuts.

    ``leaf`` is the region's full-length prefix and ``rule`` the rule that
    cuts it, or None when it stands.  No orbit cut is made.
    """
    n = len(comp.choices)

    def below(sigma, prefix, rule):
        d = len(sigma)
        if d == n:
            yield sigma, prefix, rule
        elif rule is None:
            for s in comp.choices[d]:
                yield from below(sigma + (s,), *prefix.child(d, s, top))

    return below((), *sweep._Prefix.root(comp, top))


@pytest.mark.parametrize("case", list(CASES))
def test_leaves_settle_as_their_regions(case):
    """A leaf cut by the boxes is an empty region, one cut by the window
    has too many nonzero slots, and one that stands reaches the region
    search with the count, the boxes, the forced-zero slots and the open
    slots of its region."""
    _, comp, sought_set, _ = sweep_case(case)
    top = max(sought_set)
    rules = set()
    for sigma, leaf, rule in settled_leaves(comp, top):
        rules.add(rule)
        ref = reference_region(comp, sigma)
        if rule == sweep._BOX:
            assert ref is None, sigma
        elif rule == sweep._WINDOW:
            assert ref is None or ref[0] > top, sigma
        else:
            assert ref is not None, sigma
            n_base, boxes, forced_zero, ambiguous = ref
            assert leaf.n_pos == n_base, sigma
            support = [i for i, s in enumerate(sigma) if s != 0]
            assert [leaf.boxes[i] for i in support] == [boxes[i] for i in support], sigma
            assert leaf.zero == forced_zero, sigma
            unsettled = {k for k, form in enumerate(leaf.forms) if form is not None}
            assert unsettled - set(leaf.zero) == set(ambiguous), sigma
    assert None in rules


def box_inside(inner, outer) -> bool:
    """Whether box ``inner`` lies inside box ``outer`` (a None end is unbounded)."""
    (ilo, ihi, ilo_x, ihi_x), (olo, ohi, olo_x, ohi_x) = inner, outer
    lo_in = olo is None or ilo is not None and (
        ilo > olo or (ilo == olo and (ilo_x or not olo_x)))
    hi_in = ohi is None or ihi is not None and (
        ihi < ohi or (ihi == ohi and (ihi_x or not ohi_x)))
    return lo_in and hi_in


@pytest.mark.parametrize("case", list(CASES))
def test_boxes_only_shrink_down_the_walk(case):
    """A child's boxes lie inside its parent's, and a region's leaf boxes
    inside the boxes ``reference_region`` settles it with from scratch."""
    _, comp, sought_set, _ = sweep_case(case)
    top = max(sought_set)
    n = len(comp.choices)
    leaves = 0

    def below(sigma, prefix):
        nonlocal leaves
        if len(sigma) == n:
            ref = reference_region(comp, sigma)
            assert ref is not None, sigma
            leaves += 1
            for i, s in enumerate(sigma):
                if s != 0:
                    assert box_inside(prefix.boxes[i], ref[1][i]), (sigma, i)
            return
        d = len(sigma)
        for s in comp.choices[d]:
            child, rule = prefix.child(d, s, top)
            if rule is None:
                for i, box in enumerate(child.boxes):
                    if box is not None:
                        assert box_inside(box, prefix.boxes[i]), (sigma + (s,), i)
                below(sigma + (s,), child)

    root, rule = sweep._Prefix.root(comp, top)
    assert rule is None
    below((), root)
    assert leaves


def test_a_child_whose_narrowed_box_empties_is_cut():
    """The new sign leaves the parameter no value, and every slot that
    holds it has settled, so nothing is propagated: the box check alone
    cuts the child."""
    _, comp, sought_set, _ = sweep_case("cubic-orthant")
    top = max(sought_set)
    root, rule = sweep._Prefix.root(comp, top)
    assert rule is None
    p = 0
    assert comp.occurs[p] and comp.choices[p] == (0, 1)
    for k in comp.occurs[p]:
        root.forms[k] = None
    root.boxes[p] = (0, 0, False, False)
    assert root.child(p, 1, top)[1] == sweep._BOX
    root.boxes[p] = (0, 1, False, False)
    assert root.child(p, 1, top)[1] is None


def test_forced_zero_slots_stay_in_slot_order():
    """Slot 1 (-c) is capped at 0 from the root on; b = 0 caps slot 0 (b - a)
    too, and ``zero``, which orders the region's LP rows, lists it first."""
    fam = AffineFamily(1, [ParamSpec(n, None, rat(0)) for n in "bac"],
                       [SlotSpec(None, LinearForm(0, {"b": 1, "a": -1})),
                        SlotSpec(None, LinearForm(0, {"c": -1}))])
    root, rule = sweep._Prefix.root(sweep._Compiled(fam, True), 2)
    assert rule is None and root.zero == [1]
    child, rule = root.child(0, 0, 2)
    assert rule is None and child.zero == [0, 1]


def test_a_sign_settles_only_the_slots_it_reaches(monkeypatch):
    """The decisive degree-13 sweep evaluates a slot's interval at most
    6,000 times; settling every open slot of every prefix takes 13,114."""
    calls = []
    interval = sweep._interval_of

    def counting(const, items, boxes):
        calls.append(None)
        return interval(const, items, boxes)

    monkeypatch.setattr(sweep, "_interval_of", counting)
    fam, comp, sought_set, h_exact = sweep_case("gamma7-d13")
    rep = run_l0_sweep(fam, orthant=comp.orthant, sought=sorted(sought_set),
                       h_degree_exact=h_exact)
    assert rep.exhaustive and sorted(rep.achievable) == [17]
    assert len(calls) <= 6000


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
    perm = fam.symmetry
    below = lattice_nodes_below(comp.choices)
    expected = []
    for sigma in itertools.product(*comp.choices):
        tick = preorder_tick(comp.choices, below, sigma)
        if tick > limit:
            break
        if degree_ok(fam, sigma, h_exact) and (
            perm is None or reference_canonical(sigma, perm)
        ):
            expected.append((sigma, tick))

    def walk():
        budget = sweep._Budget(limit)
        steps = []
        try:
            for sigma, leaf in sweep._walk(comp, perm, needed(fam, h_exact), max(sought_set),
                                           budget, sweep.SweepStats()):
                assert len(leaf.forms) == len(comp.slots)
                steps.append((sigma, budget.spent))
        except sweep._BudgetExhausted:
            assert limit < 10**30 and budget.spent > limit
        else:
            assert budget.spent == 1 + below[0]  # every lattice node charged once
        return steps

    kept = walk()
    in_order = iter(expected)
    assert all(step in in_order for step in kept)  # same ticks, same order
    monkeypatch.setattr(sweep._Prefix, "_settle", lambda self, touched, orthant, top: None)
    assert walk() == expected


@pytest.mark.parametrize("case", ["gamma7-d12", "gamma7-d13"])
def test_orbit_cut_spares_prefix_settles(case, monkeypatch):
    fam, comp, sought_set, h_exact = sweep_case(case)
    rep = run_l0_sweep(fam, sought=sorted(sought_set), h_degree_exact=h_exact)
    assert rep.exhaustive and rep.stats.pruned_orbit > 0
    settles = []
    settle = sweep._Prefix._settle

    def counting(self, touched, orthant, top):
        settles.append(None)
        return settle(self, touched, orthant, top)

    monkeypatch.setattr(sweep._Prefix, "_settle", counting)
    perm = fam.symmetry
    counts = []
    for orbit in (perm, None):
        settles.clear()
        for _ in sweep._walk(comp, orbit, needed(fam, h_exact), max(sought_set),
                             sweep._Budget(10**30), sweep.SweepStats()):
            pass
        counts.append(len(settles))
    assert counts[0] < counts[1]


def leaf_of(comp, sigma, ref):
    """The region sigma, settled by ``reference_region``, as the walk hands it on."""
    n_base, boxes, forced_zero, ambiguous = ref
    forms = [None] * len(comp.slots)
    for k in forced_zero + ambiguous:
        slot = comp.slots[k]
        forms[k] = (slot.iconst, tuple(it for it in slot.iitems if sigma[it[0]] != 0))
    return sweep._Prefix(comp, forms, boxes, forced_zero, n_base)


def reference_sweep(fam, comp, sought_set, h_exact):
    """The sweep with no prefix cut: every canonical region, settled from scratch."""
    stats = sweep.SweepStats()
    found = {}
    remaining = set(sought_set)
    budget = sweep._Budget(10**9)  # the search must run to the end
    for sigma in lattice_regions(fam, comp, fam.symmetry, h_exact):
        if not remaining:
            break
        ref = reference_region(comp, sigma)
        if ref is None:
            continue
        leaf = leaf_of(comp, sigma, ref)
        sweep._explore_region(comp, sigma, leaf, found, remaining, budget, stats)
    return found, stats


@pytest.mark.parametrize("case", list(CASES))
def test_reports_match_a_sweep_that_cuts_nothing(case):
    fam, comp, sought_set, h_exact = sweep_case(case)
    rep = run_l0_sweep(fam, orthant=comp.orthant, sought=sorted(sought_set),
                       h_degree_exact=h_exact)
    found, stats = reference_sweep(fam, comp, sought_set, h_exact)
    assert rep.exhaustive
    assert rep.achievable == {v: found[v] for v in sorted(found)}
    assert rep.certified_absent == sorted(sought_set - found.keys())
    for key in ("nodes", "lp_calls", "leaves", "pivots"):
        assert getattr(rep.stats, key) == getattr(stats, key), key


def test_a_slot_capped_at_zero_is_forced_to_vanish():
    """A slot whose largest value over the leaf's boxes is 0 vanishes in
    every point of the region: the search fixes it to zero, with one LP and
    no branch, instead of branching on it."""
    slots = [LinearForm(-1, {"a": 1}), LinearForm(0, {"a": 1})]  # a - 1, a
    fam = AffineFamily(1, [ParamSpec("a", None, rat(0), rat(1))],
                       [SlotSpec(None, form) for form in slots])
    rep = run_l0_sweep(fam, orthant=True)
    assert rep.achievable == {1: {"a": 1}} and rep.certified_absent == [0, 2]
    assert (rep.stats.nodes, rep.stats.lp_calls, rep.stats.leaves) == (2, 1, 1)
