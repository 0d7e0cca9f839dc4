"""Coefficients of G = F - H + H*F as affine forms of H's free coefficients.

For a group with basic polynomial F and a symbolic invariant polynomial H
of bounded degree, every coefficient of G is an affine form (a rational
constant plus rational weights) over H's coefficients.  The list of these
forms, one per monomial that can occur in G, is an :class:`AffineFamily`.
Instantiating the family at a parameter point reproduces the tensor step
exactly; asking which subsets of forms can vanish simultaneously (with the
rest strictly positive, or merely nonzero) is an exact rational LP
question answered by :func:`pattern_feasible`.

Parameter naming for gamma7 follows the conventional letters for the
eleven invariant monomials of degree at most six: U for xyz; B, C, D for
the degree-4 monomials omitting x, y, z respectively; R, S, T and K, L, M
likewise in degrees 5 and 6; V for (xyz)^2.  Other monomials get
systematic names derived from their exponents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import index
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from . import ratlp
from .construct import basic_poly_closed
from .groups import GAMMA7, GroupSpec, enumerate_invariant_monomials, rotate_xyz
from .polycore import Monomial, Polynomial, grlex_key, validate_mono
from .rat import Rat, rat, rat_str
from .transform import tensor_step

NONNEG_H = "nonneg"
SIGNED_H = "signed"


class LinearForm:
    """Affine form: constant plus rational weights over named parameters."""

    __slots__ = ("const", "weights")

    def __init__(self, const=0, weights: Optional[Mapping[str, object]] = None):
        self.const = rat(const)
        clean: Dict[str, Rat] = {}
        if weights:
            for name, w in weights.items():
                w = rat(w)
                if w != 0:
                    clean[name] = w
        self.weights = clean

    def evaluate(self, point: Mapping[str, Rat]) -> Rat:
        total = self.const
        for name, w in self.weights.items():
            total += w * point[name]
        return total

    def is_zero(self) -> bool:
        return self.const == 0 and not self.weights

    def single_param(self) -> Optional[Tuple[str, Rat]]:
        """(name, weight) when the form is exactly one weighted parameter."""
        if self.const == 0 and len(self.weights) == 1:
            return next(iter(self.weights.items()))
        return None

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.const == other.const and self.weights == other.weights

    def __hash__(self):
        return hash((self.const, frozenset(self.weights.items())))

    def to_json_dict(self) -> dict:
        data = {"const": rat_str(self.const)}
        for name in sorted(self.weights):
            data[name] = rat_str(self.weights[name])
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LinearForm":
        const = data.get("const", "0")
        weights = {k: v for k, v in data.items() if k != "const"}
        return cls(const, weights)

    def __str__(self):
        parts = []
        if self.const != 0 or not self.weights:
            parts.append(rat_str(self.const))
        for name in sorted(self.weights):
            w = self.weights[name]
            if w == 1:
                parts.append(name)
            elif w == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{rat_str(w)}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LinearForm({self})"


@dataclass(frozen=True)
class ParamSpec:
    """A free coefficient of H: its name, monomial, and sign bounds.

    A ``structural`` zero lower bound records that the parameter appears
    alone as some slot's whole form, so it is forced nonnegative whenever
    all slots are; such a bound only applies to orthant-constrained
    queries and is ignored when slots may take either sign.
    """

    name: str
    mono: Optional[Monomial]
    lo: Optional[Rat] = None  # None = unbounded below, 0 = nonnegative
    hi: Optional[Rat] = None
    structural: bool = False

    @property
    def degree(self) -> int:
        return sum(self.mono) if self.mono is not None else 0

    def effective_lo(self, orthant: bool) -> Optional[Rat]:
        if self.structural and not orthant:
            return None
        return self.lo


@dataclass(frozen=True)
class SlotSpec:
    """One potential monomial of G with its affine coefficient form."""

    mono: Optional[Monomial]
    form: LinearForm


@dataclass(frozen=True)
class PatternResult:
    """Outcome of a vanishing-pattern feasibility query."""

    zero_set: FrozenSet[int]
    feasible: bool
    witness: Optional[Dict[str, Rat]]
    l0: Optional[int]


@dataclass
class AffineFamily:
    """Ordered parameters plus ordered (monomial, affine form) slots.

    ``symmetry``, set on construction, is the one test the sweep's orbit cut
    relies on: the parameter permutation of x -> y -> z -> x (parameter i
    maps to ``symmetry[i]``) when the rotation maps every parameter's bounds
    and every slot's form onto its image's, and None otherwise.
    """

    nvars: int
    params: List[ParamSpec]
    slots: List[SlotSpec]
    group: Optional[GroupSpec] = None
    orthant_default: bool = True
    symmetry: Optional[Tuple[int, ...]] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        if "const" in names:
            raise ValueError("'const' is reserved and cannot name a parameter")
        self.slots = [s for s in self.slots if not s.form.is_zero()]
        self.symmetry = _detect_rotation_symmetry(self)

    @property
    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def slot_index(self, mono: Monomial) -> int:
        for i, s in enumerate(self.slots):
            if s.mono == tuple(mono):
                return i
        raise KeyError(f"no slot for monomial {mono}")

    def form_at(self, mono: Monomial) -> LinearForm:
        return self.slots[self.slot_index(mono)].form

    # -- evaluation ------------------------------------------------------------

    def check_point(self, point: Mapping) -> Dict[str, Rat]:
        clean = {}
        for p in self.params:
            if p.name not in point:
                raise KeyError(f"missing parameter {p.name}")
            clean[p.name] = rat(point[p.name])
        return clean

    def evaluate_slots(self, point: Mapping) -> List[Rat]:
        pt = self.check_point(point)
        return [s.form.evaluate(pt) for s in self.slots]

    def h_polynomial(self, point: Mapping) -> Polynomial:
        """The invariant polynomial H determined by a parameter point."""
        pt = self.check_point(point)
        terms = {}
        for p in self.params:
            if p.mono is None:
                raise ValueError("family parameters carry no monomials")
            terms[p.mono] = pt[p.name]
        return Polynomial(self.nvars, terms)

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "group": self.group.to_json_dict() if self.group else None,
            "orthant": self.orthant_default,
            "params": [
                {
                    "name": p.name,
                    "lo": None if p.lo is None else rat_str(p.lo),
                    "hi": None if p.hi is None else rat_str(p.hi),
                    "mono": None if p.mono is None else list(p.mono),
                    "structural": p.structural,
                }
                for p in self.params
            ],
            "slots": [
                {
                    "e": None if s.mono is None else list(s.mono),
                    "form": s.form.to_json_dict(),
                }
                for s in self.slots
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AffineFamily":
        nvars = index(data["nvars"])

        def mono(value) -> Optional[Monomial]:
            return None if value is None else validate_mono(value, nvars)

        params = [
            ParamSpec(
                name=entry["name"],
                mono=mono(entry.get("mono")),
                lo=None if entry.get("lo") is None else rat(entry["lo"]),
                hi=None if entry.get("hi") is None else rat(entry["hi"]),
                structural=_json_bool(entry, "structural", False),
            )
            for entry in data["params"]
        ]
        slots = [
            SlotSpec(mono=mono(entry.get("e")), form=LinearForm.from_json_dict(entry["form"]))
            for entry in data["slots"]
        ]
        for kind, specs in (("parameter", params), ("slot", slots)):
            monos = [s.mono for s in specs if s.mono is not None]
            if len(set(monos)) != len(monos):
                raise ValueError(f"repeated {kind} monomial")
        return cls(
            nvars=nvars,
            params=params,
            slots=slots,
            group=GroupSpec.from_json_dict(data["group"]) if data.get("group") else None,
            orthant_default=_json_bool(data, "orthant", True),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def _json_bool(data: Mapping, key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise TypeError(f"{key!r} must be true or false, not {value!r}")
    return value


# -- gamma7 canonical parameter names -------------------------------------------

GAMMA7_PARAM_NAMES: Dict[Monomial, str] = {
    (1, 1, 1): "U",
    (0, 1, 3): "B",
    (3, 0, 1): "C",
    (1, 3, 0): "D",
    (0, 3, 2): "R",
    (2, 0, 3): "S",
    (3, 2, 0): "T",
    (0, 5, 1): "K",
    (1, 0, 5): "L",
    (5, 1, 0): "M",
    (2, 2, 2): "V",
}


def _param_name(g: GroupSpec, mono: Monomial) -> str:
    if g.family == GAMMA7 and mono in GAMMA7_PARAM_NAMES:
        return GAMMA7_PARAM_NAMES[mono]
    return "m" + "_".join(str(e) for e in mono)


def _param_sort_key(g: GroupSpec, mono: Monomial):
    if g.family == GAMMA7 and mono in GAMMA7_PARAM_NAMES:
        return (0, list(GAMMA7_PARAM_NAMES).index(mono))
    return (1, grlex_key(mono))


def build_coefficient_family(
    g: GroupSpec, h_degree: int, sign_mode: str = SIGNED_H
) -> AffineFamily:
    """Symbolic coefficients of G = F - H + H*F for H of degree <= h_degree.

    One parameter per nonconstant invariant monomial of degree at most
    ``h_degree``.  In "nonneg" mode every parameter is bounded below by
    zero (H itself must have nonnegative coefficients).  In "signed" mode
    parameters are free except for a sound structural tightening: a
    parameter that appears alone as some slot's entire form is forced
    nonnegative anyway whenever all slots are nonnegative, so it gets the
    zero lower bound explicitly.
    """
    if h_degree < 0:
        raise ValueError("h_degree must be nonnegative")
    if sign_mode not in (NONNEG_H, SIGNED_H):
        raise ValueError(f"unknown sign mode {sign_mode!r}")

    F = basic_poly_closed(g)
    monos = sorted(
        enumerate_invariant_monomials(g, h_degree), key=lambda m: _param_sort_key(g, m)
    )
    names = [_param_name(g, m) for m in monos]

    # G = F - H + H*F, as [const, {name: weight}] per monomial of G
    f_terms = F.terms.items()
    acc: Dict[Monomial, list] = {mono: [coeff, {}] for mono, coeff in f_terms}
    for name, h_mono in zip(names, monos):
        terms = [(h_mono, -1)]
        terms += [(tuple(a + b for a, b in zip(h_mono, f)), c) for f, c in f_terms]
        for mono, w in terms:
            weights = acc.setdefault(mono, [0, {}])[1]
            weights[name] = weights.get(name, 0) + w
    slots = [
        SlotSpec(mono=mono, form=LinearForm(*acc[mono]))
        for mono in sorted(acc, key=grlex_key, reverse=True)
    ]

    singles = filter(None, (s.form.single_param() for s in slots))
    appears_alone = {name for name, w in singles if w > 0}
    params = []
    for name, mono in zip(names, monos):
        structural = sign_mode == SIGNED_H and name in appears_alone
        lo = rat(0) if sign_mode == NONNEG_H or structural else None
        params.append(ParamSpec(name=name, mono=mono, lo=lo, structural=structural))

    return AffineFamily(nvars=g.nvars, params=params, slots=slots, group=g)


def _detect_rotation_symmetry(fam: AffineFamily) -> Optional[Tuple[int, ...]]:
    """The parameter permutation of x -> y -> z -> x when it is a symmetry.

    It is one when every parameter's ``(lo, hi, structural)`` equals its
    image's and every slot's form, each parameter renamed to its image,
    equals the form of the slot at the rotated monomial.
    """
    params = fam.params
    if fam.nvars != 3 or not params or any(x.mono is None for x in params + fam.slots):
        return None
    param_at = {p.mono: i for i, p in enumerate(params)}
    form_at = {s.mono: s.form for s in fam.slots}
    try:
        perm = tuple(param_at[rotate_xyz(p.mono)] for p in params)
    except KeyError:
        return None
    images = [params[j] for j in perm]
    if any((p.lo, p.hi, p.structural) != (q.lo, q.hi, q.structural)
           for p, q in zip(params, images)):
        return None
    image_name = {p.name: q.name for p, q in zip(params, images)}
    for s in fam.slots:
        image = form_at.get(rotate_xyz(s.mono))
        renamed = {image_name[n]: w for n, w in s.form.weights.items()}
        if image is None or (image.const, image.weights) != (s.form.const, renamed):
            return None
    return perm


def instantiate(fam: AffineFamily, point: Mapping) -> Polynomial:
    """Evaluate every slot at the point; equals tensor_step(F, H(point))."""
    pt = fam.check_point(point)
    terms = {}
    for s in fam.slots:
        if s.mono is None:
            raise ValueError("family slots carry no monomials; use evaluate_slots")
        terms[s.mono] = s.form.evaluate(pt)
    return Polynomial(fam.nvars, terms)


def cross_check_instantiate(fam: AffineFamily, point: Mapping) -> bool:
    """Verify instantiate(fam, point) against an explicit tensor step."""
    if fam.group is None:
        raise ValueError("cross-check requires a group-built family")
    F = basic_poly_closed(fam.group)
    return instantiate(fam, point) == tensor_step(F, fam.h_polynomial(point))


# -- pattern feasibility ------------------------------------------------------


def lp_row(items, n: int, t_coeff=0) -> list:
    """LP coefficients over ``n`` columns from (column, weight) pairs.

    The last column is the shared slack t; it gets ``t_coeff``.  Columns
    with no item get the int 0.
    """
    coeffs = [0] * n
    for col, w in items:
        coeffs[col] = w
    coeffs[-1] = t_coeff
    return coeffs


def form_row(items, const, n: int, rel: str, scale=0) -> ratlp.Constraint:
    """The row ``const + sum w*x_col  rel  scale*t`` over :func:`lp_row`'s columns.

    ``EQ`` makes the form vanish, ``GE`` keeps it nonnegative (scale 0) or
    strictly positive while t > 0 (scale > 0); negate it for the other sign.
    """
    return lp_row(items, n, -scale), rel, -const


def bound_rows(col: int, lo, hi, n: int) -> List[ratlp.Constraint]:
    """The rows ``x_col >= lo`` and ``x_col <= hi``, for each bound not None."""
    unit = [0] * n
    unit[col] = 1
    return [(unit, rel, b) for b, rel in ((lo, ratlp.GE), (hi, ratlp.LE)) if b is not None]


def nonzero_point(base, forms, n: int, add=ratlp.add_rows) -> Optional[List[Rat]]:
    """A point with slack t > 0 where every form is nonzero, or None.

    ``base`` is the :class:`~invsp.ratlp.LPResult` of maximizing t over the
    base rows.  ``forms`` holds (items, const, scale) triples, items being
    (column, weight) pairs over the ``n`` columns and ``scale`` the
    positive factor the form was multiplied by (1 for a form as it is).
    The sign of each form is branched in turn, ``form >= scale*t`` before
    ``-form >= scale*t``, depth first, each branch's LP re-optimized from
    its parent's by ``add(parent, [row])`` (:func:`ratlp.add_rows`); the LP
    vertex of the first branch that keeps t positive down to the last form
    is returned (t included), or None when no branch does.
    """

    def rec(k: int, res):
        if res.status != ratlp.OPTIMAL or res.objective <= 0:
            return None
        if k == len(forms):
            return res.x
        items, const, scale = forms[k]
        plus = form_row(items, const, n, ratlp.GE, scale)
        minus = form_row([(c, -w) for c, w in items], -const, n, ratlp.GE, scale)
        for row in (plus, minus):
            hit = rec(k + 1, add(res, [row]))
            if hit is not None:
                return hit
        return None

    return rec(0, base)


def pattern_feasible(
    fam: AffineFamily, zero_set: Iterable[int], orthant: Optional[bool] = None
) -> PatternResult:
    """Decide whether exactly the given slots can vanish.

    With ``orthant`` true (the default for group families) the remaining
    slots must be strictly positive; otherwise they must merely be nonzero.
    Feasibility is decided by maximizing a shared slack t with exact
    rational LP; the pattern is feasible exactly when the optimum is
    positive.
    """
    if orthant is None:
        orthant = fam.orthant_default
    zset = frozenset(int(i) for i in zero_set)
    if any(i < 0 or i >= len(fam.slots) for i in zset):
        raise ValueError("zero_set index out of range")
    n = len(fam.params) + 1  # parameters plus the slack t
    index = {p.name: i for i, p in enumerate(fam.params)}
    objective = lp_row((), n, 1)

    def items(i: int):
        return [(index[name], w) for name, w in fam.slots[i].form.weights.items()]

    base_rows = []
    for i, p in enumerate(fam.params):
        base_rows += bound_rows(i, p.effective_lo(orthant), p.hi, n)
    base_rows += bound_rows(n - 1, None, 1, n)  # t <= 1
    base_rows += [form_row(items(i), fam.slots[i].form.const, n, ratlp.EQ) for i in zset]

    forms = [
        (items(i), fam.slots[i].form.const, 1)
        for i in range(len(fam.slots))
        if i not in zset
    ]
    if orthant:  # every other slot strictly positive: a single LP
        base_rows += [form_row(it, const, n, ratlp.GE, scale) for it, const, scale in forms]
        forms = []
    x = nonzero_point(ratlp.solve_lp(objective, base_rows, n), forms, n)
    if x is None:
        return PatternResult(zset, False, None, None)
    witness = {p.name: x[i] for i, p in enumerate(fam.params)}
    return PatternResult(zset, True, witness, len(fam.slots) - len(zset))
