"""Reference kernels the fast paths in invsp are checked against.

These are the straightforward versions.  On plain ``Fraction`` term dicts:
a sum and a scaling coefficient by coefficient, a product that multiplies
every pair of terms, a hyperplane restriction that expands each term times
a power of 1 - x - y with that product, and a division of G - F by F - 1
that rescans the whole remainder for its leading term at each step.  Then
an orbit test that builds a full region's rotated images, the range of a
form over a box taken item by item on ``Fraction``, box propagation that
re-sums the rest of a form for every item, a region classifier that
settles every slot of one sign region from scratch, and a dense two-phase
simplex on ``Fraction``.  They share no code with the arithmetic of
``Polynomial`` (its constructor, which builds their results, aside),
``Polynomial.restrict_to_hyperplane``, ``transform.quotient_H``, the
sweep's orbit test, sign boxes, box propagation, interval kernel or prefix
settling, or ``ratlp``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from invsp.polycore import Polynomial

_SIGN_RANK = {0: 0, 1: 1, -1: 2}


def _grlex(mono):
    return (sum(mono), mono)


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two plain term dicts, by pairwise products of coefficients."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono)
            s = ca * cb if s is None else s + ca * cb
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b by pairwise products of rational coefficients."""
    assert a.nvars == b.nvars
    return Polynomial(a.nvars, _mul_terms(dict(a.terms), dict(b.terms)))


def reference_add(a: Polynomial, b: Polynomial, sign: int = 1) -> dict:
    """The terms of a + sign * b, summed coefficient by coefficient on a plain dict."""
    assert a.nvars == b.nvars
    out = dict(a.terms)
    for mono, c in b.terms.items():
        s = out.get(mono, 0) + sign * c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def reference_scale(a: Polynomial, factor) -> dict:
    """The terms of factor * a, each coefficient times the factor."""
    factor = Fraction(factor)
    return {mono: c * factor for mono, c in a.terms.items()} if factor else {}


@cache
def _one_minus_sum_power(k: int, e: int) -> dict:
    """The terms of (1 - x - y ...)^e in k variables, by repeated :func:`_mul_terms`."""
    zero = (0,) * k
    if e == 0:
        return {zero: Fraction(1)}
    base = {zero: Fraction(1)}
    base.update({zero[:i] + (1,) + zero[i + 1:]: Fraction(-1) for i in range(k)})
    return _mul_terms(_one_minus_sum_power(k, e - 1), base)


def reference_restrict(f: Polynomial) -> Polynomial:
    """f with its last variable replaced by 1 minus the sum of the others.

    Each term becomes its head times (1 - x - y ...)^e, expanded on plain
    term dicts and summed into one dict.
    """
    k = f.nvars - 1
    out = {}
    for mono, c in f.terms.items():
        for m, v in _one_minus_sum_power(k, mono[k]).items():
            key = tuple(x + y for x, y in zip(mono[:k], m))
            out[key] = out.get(key, 0) + c * v
    return Polynomial(k, out)


def reference_quotient(F: Polynomial, G: Polynomial) -> Polynomial:
    """The H with G = F - H + H*F, by graded-lex leading-term division.

    Runs on plain term dicts and rescans the whole remainder for its leading
    term at each step.  Raises ``ValueError`` naming the first stray term
    when the division leaves a remainder.
    """
    n = F.nvars
    zero = (0,) * n
    divisor = dict(F.terms)
    divisor[zero] = divisor.get(zero, 0) - 1
    divisor = {mono: c for mono, c in divisor.items() if c}
    lead_mono = max(divisor, key=_grlex)
    current = reference_add(G, F, -1)
    quotient, remainder = {}, {}
    while current:
        mono = max(current, key=_grlex)
        coeff = current[mono]
        if all(a >= b for a, b in zip(mono, lead_mono)):
            shift = tuple(a - b for a, b in zip(mono, lead_mono))
            q = coeff / divisor[lead_mono]
            quotient[shift] = q
            for m, c in divisor.items():
                key = tuple(x + y for x, y in zip(shift, m))
                s = current.get(key, 0) - q * c
                if s == 0:
                    current.pop(key, None)
                else:
                    current[key] = s
        else:
            remainder[mono] = coeff
            del current[mono]
    if remainder:
        raise ValueError(
            "division left a nonzero remainder; the input is not of the form "
            f"F - H + H*F for this group (first stray term {next(iter(remainder))})"
        )
    return Polynomial(n, quotient)


def reference_canonical(sigma, perm) -> bool:
    """True when sign region sigma is the lexicographic representative of its orbit.

    The orbit is sigma's images under the parameter rotation ``perm`` and
    its square, each built in full; signs rank 0 < 1 < -1.
    """
    code = tuple(_SIGN_RANK[s] for s in sigma)
    image = tuple(sigma)
    for _ in range(2):
        image = tuple(image[perm[i]] for i in range(len(perm)))
        if tuple(_SIGN_RANK[s] for s in image) < code:
            return False
    return True


def reference_interval(const, items, boxes):
    """(fmin, fmin_attained, fmax, fmax_attained) of ``const + sum w*x`` over the boxes.

    Each box is ``(lo, hi, lo_excl, hi_excl)``, an end None being unbounded
    and an excluded end (only ever a 0) not attained.  For each item the
    least and the greatest of ``w*x`` over its box are taken from the two
    ends, in ``Fraction``.  An unbounded side is None, and its flag False.
    """
    inf = float("inf")
    fmin = fmax = Fraction(const)
    min_att = max_att = True
    for pos, w in items:
        lo, hi, lo_excl, hi_excl = boxes[pos]
        ends = [(-inf if lo is None else Fraction(lo), not lo_excl),
                (inf if hi is None else Fraction(hi), not hi_excl)]
        (least, least_att), (most, most_att) = sorted((Fraction(w) * x, att) for x, att in ends)
        fmin, fmax = fmin + least, fmax + most
        min_att, max_att = min_att and least_att, max_att and most_att
    if fmin == -inf:
        fmin, min_att = None, False
    if fmax == inf:
        fmax, max_att = None, False
    return fmin, min_att, fmax, max_att


def reference_propagate(boxes, forms, rounds=3):
    """Tighten the boxes in place with ``form >= 0``; False if a box empties.

    Each round visits every form in order, and for every item re-sums the
    rest of the form at its capping ends (``hi`` for a positive weight,
    ``lo`` for a negative one), then moves the item's other end to where
    the whole form can still reach 0, dividing in ``Fraction``.  Stops
    after a round that moves nothing, or after ``rounds`` rounds; the boxes
    are checked for emptiness after every round.
    """
    for _ in range(rounds):
        changed = False
        for const, items in forms:
            for k, wk in items:
                rest_max = const
                for pos, w in items:
                    if pos == k:
                        continue
                    lo, hi, _, _ = boxes[pos]
                    bound = hi if w > 0 else lo
                    if bound is None:
                        rest_max = None
                        break
                    rest_max += w * bound
                if rest_max is None:
                    continue
                lo, hi, lo_excl, hi_excl = boxes[k]
                if wk > 0:
                    new_lo = Fraction(-rest_max) / wk
                    if lo is None or new_lo > lo:
                        boxes[k] = (new_lo, hi, lo_excl and new_lo == 0, hi_excl)
                        changed = True
                else:
                    new_hi = Fraction(rest_max) / -wk
                    if hi is None or new_hi < hi:
                        boxes[k] = (lo, new_hi, lo_excl, hi_excl and new_hi == 0)
                        changed = True
        for box in boxes:
            if box is None:
                continue
            lo, hi, lo_excl, hi_excl = box
            if lo is not None and hi is not None:
                if lo > hi or (lo == hi and (lo_excl or hi_excl)):
                    return False
        if not changed:
            break
    return True


def reference_sign_box(lo, hi, s):
    """The part of [lo, hi] (None unbounded) where x has sign s, 0 excluded."""
    if s > 0:
        return (0, hi, True, False) if lo is None or lo <= 0 else (lo, hi, False, False)
    return (lo, 0, False, True) if hi is None or hi >= 0 else (lo, hi, False, False)


def reference_region(comp, sigma):
    """Settle every slot of the sign region sigma from scratch.

    Substitutes the zero parameters away, builds the sign box of each
    parameter in the support, propagates the boxes over every slot on the
    orthant, and classifies each slot by its interval over them.  Returns
    None when the region is empty, else ``(n_base, boxes, forced_zero,
    ambiguous)``: the number of slots nonzero on the whole region, the
    boxes, and the indices of the slots capped at zero and of those left
    undecided.
    """
    zero_positions = {i for i, s in enumerate(sigma) if s == 0}

    # reduce the integer slot forms over the support
    reduced = []  # (slot index, integer const, integer items)
    n_base = 0  # slots decided nonzero for the whole region
    for k, slot in enumerate(comp.slots):
        items = tuple(it for it in slot.iitems if it[0] not in zero_positions)
        if items:
            reduced.append((k, slot.iconst, items))
        elif slot.iconst == 0:
            continue  # vanishes on the whole region
        elif slot.iconst > 0 or not comp.orthant:
            n_base += 1
        else:
            return None

    # parameter boxes for the region
    boxes = [None] * len(comp.names)
    for i, s in enumerate(sigma):
        if s != 0:
            boxes[i] = reference_sign_box(comp.lo[i], comp.hi[i], s)

    if comp.orthant and not reference_propagate(boxes, [(c, it) for _, c, it in reduced]):
        return None

    forced_zero, ambiguous = [], []
    for k, const, items in reduced:
        fmin, min_att, fmax, max_att = reference_interval(const, items, boxes)
        if comp.orthant:
            if fmax is not None and (fmax < 0 or (fmax == 0 and not max_att)):
                return None
            if fmax is not None and fmax == 0:
                forced_zero.append(k)
                continue
            if fmin is not None and (fmin > 0 or (fmin == 0 and not min_att)):
                n_base += 1
                continue
            ambiguous.append(k)
        else:
            if (fmin is not None and (fmin > 0 or (fmin == 0 and not min_att))) or (
                fmax is not None and (fmax < 0 or (fmax == 0 and not max_att))
            ):
                n_base += 1
            else:
                ambiguous.append(k)
    return n_base, boxes, forced_zero, ambiguous


def reference_lp(objective, constraints, n_vars, maximize=True):
    """The textbook two-phase tableau simplex under Bland's rule, on Fraction.

    Rows with a negative rhs, and ``>=`` rows with rhs 0, are negated first;
    every ``<=`` row then starts with its slack basic, and each ``==`` or
    ``>=`` row gets an artificial.  Columns are ordered u, v (x = u - v),
    slacks, artificials.  Returns ``(status, objective, x, pivots)``, the
    pivots counting drive-out pivots too.
    """
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    rows, rels = [], []
    for coeffs, rel, rhs in constraints:
        r = [Fraction(a) for a in (*coeffs, rhs)]
        if r[-1] < 0 or (r[-1] == 0 and rel == ">="):
            r, rel = [-a for a in r], flip[rel]
        rows.append(r)
        rels.append(rel)
    n_split = 2 * n_vars
    n_slack = sum(rel != "==" for rel in rels)
    art = n_split + n_slack
    n_art = sum(rel != "<=" for rel in rels)
    T, basis, s, a = [], [], n_split, art
    for r, rel in zip(rows, rels):
        t = r[:-1] + [-c for c in r[:-1]] + [Fraction(0)] * (n_slack + n_art) + r[-1:]
        if rel != "==":
            t[s] = Fraction(1 if rel == "<=" else -1)
            if rel == "<=":
                basis.append(s)
            s += 1
        if rel != "<=":
            t[a] = Fraction(1)
            basis.append(a)
            a += 1
        T.append(t)
    pivots = 0

    def pivot(i, j):
        nonlocal pivots
        T[i] = [c / T[i][j] for c in T[i]]
        for k, other in enumerate(T):
            if k != i and other[j]:
                T[k] = [c - other[j] * p for c, p in zip(other, T[i])]
        basis[i] = j
        pivots += 1

    def maximize_cost(cost):  # False when unbounded
        while True:
            z = [sum(cost[b] * t[j] for t, b in zip(T, basis)) - cost[j]
                 for j in range(len(cost))]
            enter = next((j for j, zj in enumerate(z) if zj < 0), None)
            if enter is None:
                return True
            ratios = [(t[-1] / t[enter], basis[i], i) for i, t in enumerate(T) if t[enter] > 0]
            if not ratios:
                return False
            pivot(min(ratios)[2], enter)

    if n_art:
        cost = [0] * art + [-1] * n_art
        maximize_cost(cost)
        if sum(cost[b] * t[-1] for t, b in zip(T, basis)) != 0:
            return "infeasible", None, None, pivots
        for i in range(len(T)):
            if basis[i] >= art:
                j = next((j for j in range(art) if T[i][j]), None)
                if j is not None:
                    pivot(i, j)
        keep = [i for i, b in enumerate(basis) if b < art]
        T = [T[i][:art] + T[i][-1:] for i in keep]
        basis = [basis[i] for i in keep]
    c = [Fraction(x) if maximize else -Fraction(x) for x in objective]
    if not maximize_cost(c + [-x for x in c] + [0] * n_slack):
        return "unbounded", None, None, pivots
    values = [Fraction(0)] * art
    for t, b in zip(T, basis):
        values[b] = t[-1]
    x = [values[i] - values[n_vars + i] for i in range(n_vars)]
    return "optimal", sum((Fraction(ci) * xi for ci, xi in zip(objective, x)), Fraction(0)), x, pivots
