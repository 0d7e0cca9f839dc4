"""Exhaustive enumeration of achievable sparsity values over an affine family.

The search space is the set of parameter points of an :class:`AffineFamily`
(optionally restricted to the orthant where every slot is nonnegative).
Each point determines a vanishing pattern of slots; the quantity of
interest is the number of nonvanishing slots.  The sweep certifies, for a
requested set of candidate values, exactly which are attained.

Structure of the search, mirroring a by-hand case analysis:

1. Parameters are split by exact sign (zero / positive / negative where a
   negative value is allowed), giving a lattice of sign regions, walked
   depth first over the parameters in their stored order by one recursive
   generator.  Every prefix, a full region included, is settled from its
   parent before the walk goes on: a new zero parameter is substituted
   away, and each slot that vanishes, or is nonzero in every region below,
   is counted and dropped.  On the orthant the parent's boxes, the new
   parameter's narrowed to its sign, are propagated on from the slots
   holding it, nonzero means positive, a slot the boxes cap at zero is
   marked forced to vanish, and the subtree is cut when a box empties or a
   slot cannot be nonnegative over the boxes; in the free-sign regime
   nonzero means either sign over the sign boxes.  Only the slots holding
   the new or a moved parameter are checked again.  In both, the subtree
   is cut when more slots are nonzero in every region below than the
   largest sought value.
2. A region reaches the search settled: the count of its nonzero slots,
   its propagated boxes, its forced-zero slots and its open slot forms.
   Only the open forms are branched on, zero first and then nonzero, by one
   depth-first search for both sign regimes, with an exact rational LP as
   the feasibility oracle.  A region solves one LP from scratch, and every
   later LP of its search is an earlier one plus rows, re-optimized from
   that LP's final tableau by the dual simplex.  Propagation and the LP
   rows both use the slot forms scaled to integers; the slack t of an LP
   row gets the slot's scale, so each row is a positive multiple of the
   rational one.
3. Regions are settled in walk order, each against the sought values no
   earlier region has witnessed, and branches whose attainable value
   interval cannot contribute a still undecided value are pruned.
4. An order-3 variable rotation, when the family's forms and bounds are
   symmetric under it (``AffineFamily.symmetry``), keeps only the
   lexicographically least region of each orbit, cutting the region
   lattice by up to a factor of three.  The test runs at every prefix
   whose positions the rotation maps onto themselves (the degree-class
   boundaries), before the prefix is settled: it ranks the prefix's signs
   and compares them with its two rotated images, and cuts the whole
   subtree when an image is smaller: no region below it is its orbit's
   representative.

One budget, which the walk and the region search both pay, bounds the
whole sweep: every node of the sign lattice and every search node inside a
region costs one unit, and a subtree cut at a prefix costs all of its
lattice nodes.  A region cut by the boxes or the value window, at a shorter
prefix or at its own, is one the region search would have left without a
node, and one cut by the rotation is one the walk would never have
yielded, so a budget reaches exactly the regions it would reach without
the cuts.  Regions are settled in the lattice walk's order, and the sweep
stops once every sought value is witnessed, or at the first node the
budget cannot pay, non-exhaustive if a sought value is still unwitnessed.
One process walks the lattice and settles each region as the walk reaches
it, so a report depends only on the family, the sought values and the budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import ratlp
from .affinefamily import AffineFamily, bound_rows, form_row, lp_row, nonzero_point
from .rat import Rat, rat, scaled_ints

DEFAULT_BUDGET = 200_000

_CANON_RANK = {0: 0, 1: 1, -1: 2}  # the order of signs in the orbit test


@dataclass
class SweepStats:
    nodes: int = 0
    lp_calls: int = 0
    regions_total: int = 0  # regions the walk yields to the region search
    regions_explored: int = 0  # the same count, under the name tools also read
    regions_infeasible: int = 0  # ... whose first LP is infeasible (orthant only)
    leaves: int = 0
    pivots: int = 0  # simplex pivots summed over every LP call
    pruned_box: int = 0  # subtrees cut at a prefix, a region's own included: empty box
    pruned_window: int = 0  # ... more nonzero slots than any sought value
    pruned_orbit: int = 0  # ... the rotation: no region below is canonical


@dataclass
class L0Report:
    """Outcome of a sweep: witnessed values, certified absences, coverage.

    ``exhaustive`` means every sought value is settled: witnessed, or
    certified absent by a sweep that ran to completion.  A sweep that
    witnesses every sought value stops there and is exhaustive, with
    nothing certified absent.
    """

    achievable: Dict[int, Dict[str, Rat]]
    sought: FrozenSet[int]
    certified_absent: List[int]
    exhaustive: bool
    stats: SweepStats = field(default_factory=SweepStats)

    def to_json_dict(self) -> dict:
        from .rat import rat_str

        return {
            "achievable": {
                str(v): {k: rat_str(x) for k, x in sorted(pt.items())}
                for v, pt in sorted(self.achievable.items())
            },
            "sought": sorted(self.sought),
            "certified_absent": self.certified_absent,
            "exhaustive": self.exhaustive,
            "stats": asdict(self.stats),
        }


class _BudgetExhausted(Exception):
    pass


class _Budget:
    """The one budget of a sweep: lattice and search nodes both spend it."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, n: int) -> None:
        """Pay n units; raise :class:`_BudgetExhausted` once more than the limit is spent."""
        self.spent += n
        if self.spent > self.limit:
            raise _BudgetExhausted


# -- compiled family ------------------------------------------------------------


class _CompiledSlot:
    __slots__ = ("scale", "iconst", "iitems")

    def __init__(self, const: Rat, items: Tuple[Tuple[int, Rat], ...]):
        # The form, over (param position, weight) items, scaled to ints by a
        # positive factor, so every sign and zero test reads the same on the
        # rational form and on this one.
        (self.iconst, *weights), self.scale = scaled_ints([const, *(w for _, w in items)])
        self.iitems = tuple(zip((p for p, _ in items), weights))


def _exact(q: Optional[Rat]):
    """A bound as an int when it is integral, else unchanged."""
    if q is None or q.denominator != 1:
        return q
    return q.numerator


class _Compiled:
    """Family flattened to integer-indexed arrays for the search loops."""

    def __init__(self, fam: AffineFamily, orthant: bool):
        self.orthant = orthant
        self.names = [p.name for p in fam.params]
        index = {n: i for i, n in enumerate(self.names)}
        self.lo = [_exact(p.effective_lo(orthant)) for p in fam.params]
        self.hi = [_exact(p.hi) for p in fam.params]
        self.slots = [
            _CompiledSlot(
                s.form.const,
                tuple(sorted((index[n], w) for n, w in s.form.weights.items())),
            )
            for s in fam.slots
        ]
        self.choices = [_sign_choices(p.lo, p.hi) for p in fam.params]
        # per parameter, the slots holding it, and those reading its lo and its hi
        self.occurs = [[] for _ in index]
        self.readers = [([], []) for _ in index]
        for k, slot in enumerate(self.slots):
            for p, w in slot.iitems:
                self.occurs[p].append(k)
                self.readers[p][w > 0].append(k)


def _sign_choices(lo: Optional[Rat], hi: Optional[Rat]) -> Tuple[int, ...]:
    """The signs, in the order (0, 1, -1), of the values the bounds [lo, hi] hold."""
    return tuple(
        s
        for s, held in (
            (0, (lo is None or lo <= 0) and (hi is None or hi >= 0)),
            (1, hi is None or hi > 0),
            (-1, lo is None or lo < 0),
        )
        if held
    )


# -- interval arithmetic on integer forms (None = unbounded) ---------------------
#
# A box is (lo, hi, lo_excl, hi_excl); a bound is an int when it is integral
# and a Rat otherwise, and only a 0 bound is ever excluded.  Forms are the
# integer-scaled ones, so the values below are the rational form's values
# times a positive factor.


def _interval_of(const, items, boxes):
    """(fmin, fmin_attained, fmax, fmax_attained) of a form over the box."""
    fmin, fmax = const, const
    min_att = max_att = True
    for pos, w in items:
        # the box's ends, swapped for a negative weight: w*x is least at lo
        if w > 0:
            lo, hi, lo_excl, hi_excl = boxes[pos]
        else:
            hi, lo, hi_excl, lo_excl = boxes[pos]
        if fmin is not None:
            if lo is None:
                fmin = None
            else:
                fmin += w * lo
                if lo == 0 and lo_excl:
                    min_att = False
        if fmax is not None:
            if hi is None:
                fmax = None
            else:
                fmax += w * hi
                if hi == 0 and hi_excl:
                    max_att = False
    return fmin, min_att, fmax, max_att


def _signed_box(box, s: int):
    """The part of a parameter box where the parameter has sign s (+1 or -1)."""
    lo, hi, lo_excl, hi_excl = box
    if s > 0:
        if lo is None or lo <= 0:
            lo, lo_excl = 0, True
    elif hi is None or hi >= 0:
        hi, hi_excl = 0, True
    return lo, hi, lo_excl, hi_excl


def _quotient(num, den: int):
    """num / den, as an int when it is integral and as a Rat otherwise."""
    if type(num) is int:
        q, r = divmod(num, den)
        return q if r == 0 else rat(num, den)
    q = num / den
    return q.numerator if q.denominator == 1 else q


_ROUNDS = 3  # passes over the forms per propagation; a fixpoint may need more


def _propagate_box(boxes, forms, seeds, readers):
    """Tighten parameter boxes using form >= 0; the moved positions, or None if a box empties.

    ``forms`` has None for a settled slot, and ``readers[p]`` the slots
    reading p's ``lo`` and its ``hi``.  A round visits, in slot order, the
    ``seeds`` (sorted) and each slot reading a bound moved since its last
    visit (a later slot in the same round, an earlier one in the next); one
    whose reads have not moved would move nothing, so seeding every slot
    makes each round a full pass.  Every round ends with an emptiness check.

    One pass per form: the terms that cap the form from above are summed
    once, and each item's rest is that total less its own term (or the
    total itself for the one item with no cap).  Tightening item k moves
    only the bound its own term does not read (``lo`` for a positive
    weight, ``hi`` for a negative one), so no update inside a form changes
    another item's rest.
    """
    moved = set()
    todo = list(seeds)  # this round's slots, a heap
    for _ in range(_ROUNDS):
        queued, later = set(todo), set()
        while todo:
            f = heappop(todo)
            if forms[f] is None:
                continue
            const, items = forms[f]
            total = const
            uncapped = None  # the one item whose capping bound is None
            for item in items:
                pos, w = item
                bound = boxes[pos][w > 0]
                if bound is None:
                    if uncapped is not None:
                        break  # two uncapped items: no item has a finite rest
                    uncapped = item
                else:
                    total += w * bound
            else:
                for k, wk in items if uncapped is None else (uncapped,):
                    lo, hi, lo_excl, hi_excl = boxes[k]
                    if wk > 0:
                        rest = total if uncapped else total - wk * hi
                        # the new lo, -rest/wk, beats lo iff rest + wk*lo < 0
                        if lo is not None and rest + wk * lo >= 0:
                            continue
                        boxes[k] = (_quotient(-rest, wk), hi, False, hi_excl)
                    else:
                        rest = total if uncapped else total - wk * lo
                        if hi is not None and rest + wk * hi >= 0:
                            continue
                        boxes[k] = (lo, _quotient(-rest, wk), lo_excl, False)
                    moved.add(k)
                    for j in readers[k][wk < 0]:
                        if j < f:
                            later.add(j)
                        elif j not in queued:
                            queued.add(j)
                            heappush(todo, j)
        for box in boxes:
            if box is None:
                continue
            lo, hi, lo_excl, hi_excl = box
            if lo is not None and hi is not None and (
                lo > hi or (lo == hi and (lo_excl or hi_excl))
            ):
                return None
        if not later:
            break
        todo = sorted(later)
    return moved


# -- per-region search -----------------------------------------------------------


def _explore_region(
    comp: _Compiled,
    sigma: Tuple[int, ...],
    leaf: _Prefix,
    found: Dict[int, Dict[str, Rat]],
    remaining: set,
    budget: _Budget,
    stats: SweepStats,
) -> None:
    """Search the region sigma, settled as ``leaf``, for the remaining values.

    Takes the leaf as the walk settled it and writes each value it witnesses
    into ``found``, with its point, and out of ``remaining``.  Every search
    node is counted in ``stats`` and paid from ``budget``.  The LP rows are
    the leaf's integer forms, t weighted by the slot's scale: positive
    multiples of the rational rows, so the simplex pivots as it would on them.

    Only the region's first LP is solved from scratch; every other is an
    earlier LP plus the rows decided since, re-optimized by
    :func:`ratlp.add_rows`, and every one counts as an LP call.  One
    search serves both regimes; each open slot has a zero branch and then a
    nonzero one, and a branch whose rows already hold needs no LP.  On the
    orthant each open slot's ``form >= 0`` row stays in every LP, so each
    child LP is its parent plus rows; a point that already satisfies a
    branch is reused, its row kept for the next LP.  In the free-sign
    regime the zero branches chain their equalities, the nonzero branch
    adds no row, and a leaf branches the signs of its nonzero slots from
    its last zero-branch LP.
    """
    support = [i for i, s in enumerate(sigma) if s != 0]
    n_vars = len(support) + 1  # support parameters plus slack t
    pos_of = {p: k for k, p in enumerate(support)}

    def entry(k):  # slot k as (LP columns, const, scale)
        const, items = leaf.forms[k]
        return [(pos_of[p], w) for p, w in items], const, comp.slots[k].scale

    forced_zero = [entry(k) for k in leaf.zero]
    ambiguous = [
        entry(k) for k, form in enumerate(leaf.forms) if form is not None and k not in leaf.zero
    ]

    # the value window: no count this region can reach is still sought
    n_base = leaf.n_pos
    if not any(n_base <= v <= n_base + len(ambiguous) for v in remaining):
        return

    objective = lp_row((), n_vars, 1)

    def zero_row(entry):
        items, const, _ = entry
        return form_row(items, const, n_vars, ratlp.EQ)

    def positive_row(entry):  # form >= scale*t
        items, const, scale = entry
        return form_row(items, const, n_vars, ratlp.GE, scale)

    base_rows = []
    for p in support:
        lo, hi, _, _ = leaf.boxes[p]
        base_rows += bound_rows(pos_of[p], lo, hi, n_vars)
        # the region's sign of p: sigma_p * x_p >= t
        base_rows.append(form_row([(pos_of[p], sigma[p])], 0, n_vars, ratlp.GE, 1))
    base_rows += bound_rows(n_vars - 1, None, 1, n_vars)  # t <= 1
    base_rows += [zero_row(entry) for entry in forced_zero]

    def solve(res, rows) -> ratlp.LPResult:  # the region's first LP when res is None
        stats.lp_calls += 1
        if res is None:
            res = ratlp.solve_lp(objective, base_rows + rows, n_vars)
        else:
            res = ratlp.add_rows(res, rows)
        stats.pivots += res.pivots
        return res

    def positive_point(res):  # the region point of an LP whose optimum t is positive
        if res.status == ratlp.OPTIMAL and res.objective > 0:
            return res.x[:-1]
        return None

    def eval_entry(entry, point):  # the slot's value times its scale
        items, total, _ = entry
        for col, w in items:
            total += w * point[col]
        return total

    def full_point(point) -> Dict[str, Rat]:
        out = {}
        for i, name in enumerate(comp.names):
            out[name] = point[pos_of[i]] if i in pos_of else rat(0)
        return out

    def tick():
        stats.nodes += 1
        budget.spend(1)

    # ``res`` is the last LP solved on the way down (None before the first)
    # and ``pending`` the rows decided since; on the orthant ``point``
    # satisfies both.  Every LP but the first is ``res`` plus rows,
    # re-optimized by the dual simplex.
    def dfs(positives, undecided, point, res, pending):
        tick()
        lo_val = n_base + len(positives)
        hi_val = lo_val + len(undecided)
        if not any(lo_val <= v <= hi_val for v in remaining):
            return
        if not undecided:
            stats.leaves += 1
            if lo_val in remaining:
                if not comp.orthant:
                    x = nonzero_point(solve(None, []) if res is None else res, positives, n_vars,
                                      solve)
                    point = None if x is None else x[:-1]
                if point is not None:
                    found[lo_val] = full_point(point)
                    remaining.discard(lo_val)
            return
        head, rest = undecided[0], undecided[1:]

        # (rows, held, positives) of the zero branch, then the nonzero one; a
        # held branch needs no LP.  On the orthant each branch keeps head's
        # form >= 0 from the parent LP: with t > 0 that row is implied, so it
        # changes no decision.  In the free-sign regime the zero branch checks
        # its equalities only, and the leaf branches the signs.
        if comp.orthant:
            value = eval_entry(head, point)
            branches = (
                ([zero_row(head)], value == 0, positives),
                ([positive_row(head)], value > 0, positives + [head]),
            )
        else:
            branches = (([zero_row(head)], False, positives), ([], True, positives + [head]))
        for rows, held, pos in branches:
            if held:
                dfs(pos, rest, point, res, pending + rows)
            else:
                child = solve(res, pending + rows)
                x = positive_point(child)
                if x is not None:
                    dfs(pos, rest, x, child, [])

    tick()
    if comp.orthant:
        # each ambiguous slot's form >= 0 stays in every LP of the region
        start = solve(None, [
            form_row(items, const, n_vars, ratlp.GE) for items, const, _ in ambiguous
        ])
        point = positive_point(start)
        if point is None:
            stats.regions_infeasible += 1
            return
        dfs([], ambiguous, point, start, [])
    else:
        dfs([], ambiguous, None, None, [])


# -- the sign-region walk and the public sweep -----------------------------------


def _canonical(sigma, rotations, j: int) -> bool:
    """Whether sigma's first j signs, ranked, are no larger than each rotated image.

    ``j`` must be closed under the rotations, so the images read only
    positions before j.  When an image is lexicographically smaller, no
    region below the prefix is its orbit's representative.
    """
    code = [_CANON_RANK[sigma[i]] for i in range(j)]
    return all(code <= [_CANON_RANK[sigma[rot[i]]] for i in range(j)] for rot in rotations)


# the prefix cut rules, as stats counters
_BOX, _WINDOW, _ORBIT = "pruned_box", "pruned_window", "pruned_orbit"


class _Prefix:
    """A sign prefix, as every region below it shares it; at full length, a region.

    ``forms`` holds each slot's integer form with the zero parameters
    substituted away, or None once the slot is settled: vanishing, or
    nonzero in every region below (counted in ``n_pos``), which on the
    orthant means positive and in the free-sign regime either sign.
    ``boxes`` holds each parameter's sign box, or the family's bounds
    before it has a sign, propagated on the orthant (None for a zero one),
    and ``zero`` the unsettled slots, in slot order, those boxes cap at 0
    (orthant only), which vanish wherever every slot is nonnegative.  A
    full-length prefix that stands is the settled region the region search
    takes as it is.

    A child starts from its parent's boxes and ``zero``; a slot the new
    sign does not reach keeps its form, boxes and verdict.  Boxes only
    shrink down the walk, so a cut prefix holds no region the region search
    would spend a node on.
    """

    __slots__ = ("comp", "forms", "boxes", "zero", "n_pos")

    def __init__(self, comp: _Compiled, forms, boxes, zero, n_pos: int):
        self.comp, self.forms, self.boxes, self.zero, self.n_pos = comp, forms, boxes, zero, n_pos

    @classmethod
    def root(cls, comp: _Compiled, top: int):
        """The empty prefix and the rule that cuts it (None if it stands)."""
        forms = [(slot.iconst, slot.iitems) for slot in comp.slots]
        boxes = [(lo, hi, False, False) for lo, hi in zip(comp.lo, comp.hi)]
        prefix = cls(comp, forms, boxes, [], 0)
        return prefix, prefix._settle(range(len(forms)), comp.orthant, top)

    def child(self, p: int, s: int, top: int):
        """The prefix extended by sign s for parameter p, and its cut rule."""
        occurs = self.comp.occurs[p]
        forms = list(self.forms)
        boxes = list(self.boxes)
        if s == 0:
            boxes[p] = None
            for k in occurs:
                if forms[k] is not None:
                    const, items = forms[k]
                    forms[k] = (const, tuple(it for it in items if it[0] != p))
        else:
            boxes[p] = _signed_box(boxes[p], s)
        prefix = _Prefix(self.comp, forms, boxes, self.zero, self.n_pos)
        return prefix, prefix._settle(occurs, self.comp.orthant, top)

    def _settle(self, touched: Sequence[int], orthant: bool, top: int):
        """Settle the slots after a change to the touched ones; the cut rule.

        Cut when more than ``top`` slots are nonzero in every region below
        (``_WINDOW``), or, on the orthant, when a box empties or a slot's
        maximum over the boxes is negative, or is 0 and not attained
        (``_BOX``); propagation stops after a few rounds, so it can leave
        such a slot behind.  Only a touched slot can have become constant.
        The touched slots, and on the orthant those holding a parameter
        their propagation moved, are checked again: one nonzero over the
        boxes stays so below, so it is counted and dropped from the forms,
        and on the orthant one whose maximum is exactly 0 is in ``zero``.
        """
        forms = self.forms
        for k in touched:
            if forms[k] is None or forms[k][1]:
                continue
            const = forms[k][0]
            forms[k] = None
            if const < 0 and orthant:
                return _BOX
            self.n_pos += const != 0
        if self.n_pos > top:
            return _WINDOW
        boxes = self.boxes
        recheck = set(touched)
        if orthant:
            moved = _propagate_box(boxes, forms, touched, self.comp.readers)
            if moved is None:
                return _BOX
            for q in moved:
                recheck.update(self.comp.occurs[q])
        zero = [k for k in self.zero if k not in recheck]
        for k in recheck:
            if forms[k] is None:
                continue
            const, items = forms[k]
            fmin, min_att, fmax, max_att = _interval_of(const, items, boxes)
            negative = fmax is not None and (fmax < 0 or (fmax == 0 and not max_att))
            if negative and orthant:
                return _BOX
            if negative or (fmin is not None and (fmin > 0 or (fmin == 0 and not min_att))):
                forms[k] = None
                self.n_pos += 1
            elif orthant and fmax == 0:
                zero.append(k)
        self.zero = sorted(zero)
        return _WINDOW if self.n_pos > top else None


def _walk(comp: _Compiled, perm, need, top: int, budget: _Budget, stats: SweepStats):
    """Depth-first walk of the sign lattice, in ``itertools.product`` order.

    Yields ``(sigma, leaf)`` for every region that stands once settled, has
    a nonzero parameter among the positions ``need`` (unless ``need`` is
    None) and, when ``perm`` is given, is canonical under it:
    lexicographically no larger, with signs ranked 0 < 1 < -1, than its
    images under the rotation and its square.  ``leaf`` is the region as its
    full-length :class:`_Prefix` settled it.  The root is paid from
    ``budget`` first, every other lattice node before it is tested or
    settled, and a cut subtree is charged all its nodes.

    At every prefix length the rotation maps onto itself, the full length
    included, the prefix is tested first against its images
    (:func:`_canonical`), and when an image is smaller the subtree, whose
    every region is then non-canonical, is cut and counted in
    ``stats.pruned_orbit``.  Every prefix that stands, the full length
    included, is then settled from its parent (:class:`_Prefix`) against
    ``top``, the largest sought value, and each subtree it cuts is counted
    in ``stats`` under its rule.
    """
    choices = comp.choices
    n = len(choices)
    below = [0] * (n + 1)  # the lattice nodes under a prefix of each length
    for j in reversed(range(n)):
        below[j] = len(choices[j]) * (1 + below[j + 1])
    # the prefix lengths j whose positions 0 .. j-1 the rotation maps onto
    # themselves: in stored order, the degree-class boundaries
    closed = () if perm is None else {j for j in range(1, n + 1) if max(perm[:j]) < j}
    rotations = () if perm is None else (perm, [perm[p] for p in perm])
    sigma = [0] * n

    def cut(rule: str, j: int) -> None:  # the subtree under a prefix of length j
        setattr(stats, rule, getattr(stats, rule) + 1)
        budget.spend(below[j])

    def visit(depth: int, prefix: _Prefix):
        if depth == n:
            if need is None or any(sigma[i] for i in need):
                yield tuple(sigma), prefix
            return
        for s in choices[depth]:
            sigma[depth] = s
            budget.spend(1)
            if depth + 1 in closed and not _canonical(sigma, rotations, depth + 1):
                cut(_ORBIT, depth + 1)
                continue
            child, rule = prefix.child(depth, s, top)
            if rule is not None:
                cut(rule, depth + 1)
                continue
            yield from visit(depth + 1, child)

    budget.spend(1)  # the root
    root, rule = _Prefix.root(comp, top)
    if rule is not None:
        cut(rule, 0)
        return
    yield from visit(0, root)


def run_l0_sweep(
    fam: AffineFamily,
    *,
    orthant: Optional[bool] = None,
    sought: Optional[Sequence[int]] = None,
    h_degree_exact: Optional[int] = None,
    skip_all_zero: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> L0Report:
    """Determine which sought sparsity values the family attains.

    ``sought`` defaults to every value from 0 to the number of slots.  The
    report's ``certified_absent`` lists sought values proven unattainable;
    it is only populated when the sweep ran to completion (``exhaustive``).
    Regions are settled one at a time in walk order, and the sweep stops as
    soon as every sought value is witnessed, or at the first lattice or
    search node ``budget`` cannot pay.
    """
    if orthant is None:
        orthant = fam.orthant_default
    comp = _Compiled(fam, orthant)
    n_slots = len(fam.slots)
    sought_set = (
        frozenset(range(n_slots + 1)) if sought is None else frozenset(int(v) for v in sought)
    )
    if min(sought_set, default=0) < 0:  # a count no region can have, not a gap
        raise ValueError(f"a count of nonzero slots is never negative (target {min(sought_set)})")

    # the parameters of which a region must have a nonzero one, or None
    if h_degree_exact is not None:
        need = [i for i, p in enumerate(fam.params) if p.degree == h_degree_exact]
        if not need:  # no region could qualify: an absence would be vacuous
            raise ValueError(f"no parameter has degree {h_degree_exact}")
    elif skip_all_zero:
        need = range(len(fam.params))
    else:
        need = None
    stats = SweepStats()
    found: Dict[int, Dict[str, Rat]] = {}
    remaining = set(sought_set)  # the sought values no region has witnessed yet
    exhaustive = True
    # The prefix window cuts against the static max(sought), not against
    # remaining: that keeps the walk a pure function of the family and the
    # sought set, so a region meets the same budget whatever earlier regions
    # witnessed.
    top = max(sought_set, default=-1)
    meter = _Budget(budget)
    try:
        for sigma, leaf in _walk(comp, fam.symmetry, need, top, meter, stats):
            stats.regions_total += 1
            stats.regions_explored += 1
            _explore_region(comp, sigma, leaf, found, remaining, meter, stats)
            if not remaining:
                break  # every sought value is witnessed
    except _BudgetExhausted:
        # a region may run out after it witnessed the last sought value
        exhaustive = not remaining

    achievable = {v: found[v] for v in sorted(found)}
    certified = sorted(sought_set - set(found)) if exhaustive else []
    return L0Report(
        achievable=achievable,
        sought=sought_set,
        certified_absent=certified,
        exhaustive=exhaustive,
        stats=stats,
    )
