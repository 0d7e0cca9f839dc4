"""Achievable term counts, gap certification, and the postage-stamp closure.

For each group family this module determines which values N(G) can take
over special polynomials G, by combining three mechanisms:

* exhaustive vanishing-pattern sweeps over bounded-degree affine families
  (exact, certificate-producing; see :mod:`invsp.sweep`);
* a catalog of explicit constructions (curated witnesses plus the generic
  consecutive-term and single-term constructions), every one of which is
  re-validated end to end;
* the postage-stamp closure: from achievable s and t one builds s + t and
  s + t - 1 by a tensor step on a highest-degree monomial, so all values
  above a frontier are achievable once a long enough run exists.

Each gap theorem runs on one skeleton: sweeps that must be exhaustive and
attain exactly the expected values, a validated base of witnesses, and its
closure above a frontier.  Gaps come only from the certified absences of
sweeps that ran to completion, so an inconclusive sweep reports none; a
value below the frontier that is neither witnessed nor a gap is undecided.
Degree estimates convert bounded-degree absences into unconditional gaps:
N can only be attained in degree at most d(N), so a sweep covering degree
d(N) settles N outright.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .affinefamily import build_coefficient_family
from .construct import basic_poly_closed, coefficient_c
from .groups import GAMMA7, SCALAR, WEIGHTED, GroupSpec
from .polycore import Polynomial
from .rat import rat
from .sweep import DEFAULT_BUDGET, SweepStats, run_l0_sweep
from .transform import degree_bound, tensor_step, validate_special

LAMBDA_FIXTURE = rat(1, 2)  # interior scaling used wherever any 0 < lambda < 1 works
N1_LIMIT = 30  # a one-variable group is checked for every count N in [1, N1_LIMIT]


# -- curated witness catalog -----------------------------------------------------

# Each entry: (name, [(scaled_by_lambda, coefficient, monomial), ...], expected N).
GAMMA7_CATALOG: List[Tuple[str, list, int]] = [
    ("n17", [], 17),
    ("n29", [(False, 14, (1, 1, 1))], 29),
    ("n30", [(True, 14, (1, 1, 1))], 30),
    ("n32", [(False, 7, (3, 0, 1))], 32),
    ("n33", [(True, 7, (3, 0, 1))], 33),
    ("n34", [(True, 1, (0, 0, 7))], 34),
    ("n37", [(False, 7, (1, 3, 0)), (False, 14, (1, 1, 1))], 37),
    ("n38", [(False, 7, (1, 3, 0)), (True, 14, (1, 1, 1))], 38),
    ("n39", [(True, 7, (1, 3, 0)), (True, 14, (1, 1, 1))], 39),
    ("n40", [(False, 14, (1, 1, 1)), (False, 14, (3, 2, 0))], 40),
    ("n41", [(False, 14, (1, 1, 1)), (False, 203, (2, 2, 2))], 41),
    ("n42", [(False, 7, (1, 3, 0)), (False, 7, (0, 1, 3))], 42),
    (
        "n43",
        [(False, 7, (1, 3, 0)), (False, 14, (1, 1, 1)), (False, 7, (0, 1, 3))],
        43,
    ),
    (
        "n44",
        [(False, 7, (1, 3, 0)), (True, 14, (1, 1, 1)), (False, 7, (0, 1, 3))],
        44,
    ),
    (
        "n45",
        [(True, 7, (1, 3, 0)), (True, 14, (1, 1, 1)), (False, 7, (3, 0, 1))],
        45,
    ),
    (
        "n46",
        [(True, 7, (1, 3, 0)), (True, 14, (1, 1, 1)), (True, 7, (0, 1, 3))],
        46,
    ),
    (
        "n47",
        [
            (False, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (False, 14, (1, 1, 1)),
            (False, 7, (0, 1, 3)),
        ],
        47,
    ),
    (
        "n48",
        [
            (False, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (False, 7, (0, 1, 3)),
        ],
        48,
    ),
    (
        "n49",
        [
            (True, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (False, 7, (0, 1, 3)),
        ],
        49,
    ),
    (
        "n50",
        [
            (True, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 7, (0, 1, 3)),
        ],
        50,
    ),
    (
        "n51",
        [
            (True, 7, (1, 3, 0)),
            (True, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 7, (0, 1, 3)),
        ],
        51,
    ),
    (
        "n52",
        [
            (False, 14, (3, 2, 0)),
            (False, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (False, 14, (1, 1, 1)),
            (True, 14, (2, 0, 3)),
        ],
        52,
    ),
    (
        "n53",
        [
            (False, 14, (3, 2, 0)),
            (False, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 14, (2, 0, 3)),
        ],
        53,
    ),
    (
        "n54",
        [
            (True, 14, (3, 2, 0)),
            (False, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 14, (2, 0, 3)),
        ],
        54,
    ),
    (
        "n55",
        [
            (True, 14, (3, 2, 0)),
            (True, 7, (1, 3, 0)),
            (False, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 14, (2, 0, 3)),
        ],
        55,
    ),
    (
        "n56",
        [
            (True, 14, (3, 2, 0)),
            (True, 7, (1, 3, 0)),
            (True, 7, (3, 0, 1)),
            (True, 14, (1, 1, 1)),
            (True, 14, (2, 0, 3)),
        ],
        56,
    ),
    (
        "n57",
        [(False, rat(1, 2), (7, 0, 0)), (False, 13, (1, 1, 1)), (False, 182, (2, 2, 2))],
        57,
    ),
]

# A second route to 51 terms using more monomials in H.
GAMMA7_ALT_51 = (
    "n51-alt",
    [
        (False, 14, (3, 2, 0)),
        (False, 7, (1, 3, 0)),
        (False, 7, (3, 0, 1)),
        (False, 14, (1, 1, 1)),
        (False, 14, (2, 0, 3)),
    ],
    51,
)

# Weighted family, order 11: three consecutive middle terms scaled by 1/11.
WEIGHTED11_H_TERMS = [
    (False, 4, (7, 2)),
    (False, 7, (5, 3)),
    (False, 5, (3, 4)),
]
WEIGHTED11_EXPECTED_G = {
    (11, 0): 1,
    (9, 1): 11,
    (7, 2): 40,
    (18, 2): 4,
    (5, 3): 70,
    (16, 3): 51,
    (3, 4): 50,
    (14, 4): 258,
    (1, 5): 11,
    (12, 5): 671,
    (10, 6): 979,
    (8, 7): 814,
    (6, 8): 352,
    (4, 9): 55,
    (0, 11): 1,
    (7, 13): 4,
    (5, 14): 7,
    (3, 15): 5,
}

# Two-variable scalar family, order 2: a mixed-sign H with special result.
SCALAR22_H_TERMS = [(False, 1, (2, 0)), (False, -1, (1, 1)), (False, 1, (0, 2))]
SCALAR22_EXPECTED_G = {(4, 0): 1, (1, 1): 3, (3, 1): 1, (1, 3): 1, (0, 4): 1}


def catalog_h(terms: Sequence[tuple], nvars: int) -> Polynomial:
    """Materialize a catalog H, scaling lambda-marked terms by 1/2 (repeats add up)."""
    return Polynomial(
        nvars, [(mono, rat(coeff) * (LAMBDA_FIXTURE if lam else 1)) for lam, coeff, mono in terms]
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _witness_check(g: GroupSpec, value: int, G: Polynomial):
    """(ok, validation report): ok when G is special with exactly ``value`` terms."""
    report = validate_special(g, G)
    return report.is_special and G.term_count() == value, report


def verify_fixtures(g: GroupSpec) -> List[CheckResult]:
    """Re-derive every cataloged example for the group and check its N."""
    results: List[CheckResult] = []
    F = basic_poly_closed(g)

    def run_item(name: str, h_terms, expected_n: int, expected_g: Optional[dict] = None):
        H = catalog_h(h_terms, g.nvars)
        G = tensor_step(F, H)
        ok, report = _witness_check(g, expected_n, G)
        detail = ""
        if expected_g is not None:
            if G != Polynomial(g.nvars, expected_g):
                ok = False
                detail = "expanded polynomial differs from the expected one"
        if not report.is_special:
            detail = f"not special: {report}"
        results.append(CheckResult(name, ok, detail))
        return G

    if g.family == GAMMA7:
        for name, h_terms, expected_n in GAMMA7_CATALOG:
            G = run_item(name, h_terms, expected_n)
            if name == "n41":
                ok = G.coefficient((2, 2, 2)) == 0
                results.append(
                    CheckResult(
                        "n41-cancellation", ok, "coefficient of (xyz)^2 must cancel to zero"
                    )
                )
        run_item(*GAMMA7_ALT_51)
        # order-of-operations phenomenon: a partial application dips negative
        for name, big_mono, big_coeff in (
            ("n41-intermediate", (2, 2, 2), rat(203)),
            ("n57-intermediate", (2, 2, 2), rat(182)),
        ):
            part = Polynomial(3, {big_mono: big_coeff})
            intermediate = tensor_step(F, part)
            has_negative = any(c < 0 for c in intermediate.terms.values())
            results.append(
                CheckResult(
                    name,
                    has_negative,
                    "partial tensor application must show a negative coefficient",
                )
            )
    elif g.family == WEIGHTED and g.order == 11 and g.weights[1] == 2:
        run_item("w11-consecutive", WEIGHTED11_H_TERMS, 18, WEIGHTED11_EXPECTED_G)
    elif g.family == SCALAR and g.order == 2 and g.nvars == 2:
        run_item("s22-mixed-sign", SCALAR22_H_TERMS, 5, SCALAR22_EXPECTED_G)
    else:
        raise ValueError(f"no fixtures cataloged for group {g}")
    return results


# -- achievability sweeps ---------------------------------------------------------


@dataclass
class AchievabilityReport:
    group: GroupSpec
    degree_bound: int
    sign_mode: str
    achievable: Dict[int, Polynomial]  # value -> witness H
    proven_gaps: List[int]
    frontier: Optional[int]
    exhaustive: bool
    sought: List[int]
    stats: SweepStats = field(default_factory=SweepStats)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json_dict(),
            "degree_bound": self.degree_bound,
            "sign_mode": self.sign_mode,
            "achievable": {
                str(v): h.to_json_dict() for v, h in sorted(self.achievable.items())
            },
            "proven_gaps": self.proven_gaps,
            "frontier": self.frontier,
            "exhaustive": self.exhaustive,
            "sought": self.sought,
            "stats": asdict(self.stats),
        }


def achievable_set(
    g: GroupSpec,
    degree_bound_value: int,
    sign_mode: str = "signed",
    *,
    targets: Optional[Iterable[int]] = None,
    h_degree_exact: Optional[int] = None,
    skip_all_zero: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> AchievabilityReport:
    """Sweep all special polynomials of degree at most ``degree_bound_value``.

    ``targets`` limits the sweep to specific term counts; by default every
    count up to the number of slots is sought.  Every witness found is
    re-validated end to end (specialness and exact term count) before it is
    reported.
    """
    F = basic_poly_closed(g)
    if degree_bound_value < F.degree():
        raise ValueError("degree bound is below the degree of the basic polynomial")
    h_degree = degree_bound_value - F.degree()
    fam = build_coefficient_family(g, h_degree, sign_mode)
    if h_degree_exact is not None and all(p.degree != h_degree_exact for p in fam.params):
        raise ValueError(
            f"no coefficient of H has degree {h_degree_exact} within degree {degree_bound_value}"
        )
    report = run_l0_sweep(
        fam,
        sought=None if targets is None else sorted(int(v) for v in targets),
        h_degree_exact=h_degree_exact,
        skip_all_zero=skip_all_zero,
        budget=budget,
    )
    achievable: Dict[int, Polynomial] = {}
    for value, point in report.achievable.items():
        H = fam.h_polynomial(point)
        _validated(g, value, tensor_step(F, H))
        achievable[value] = H
    return AchievabilityReport(
        group=g,
        degree_bound=degree_bound_value,
        sign_mode=sign_mode,
        achievable=achievable,
        proven_gaps=report.certified_absent,
        frontier=None,
        exhaustive=report.exhaustive,
        sought=sorted(report.sought),
        stats=report.stats,
    )


# -- postage-stamp closure --------------------------------------------------------


def combine_witness(h: Polynomial, f: Polynomial, full: bool) -> Polynomial:
    """Tensor step on a highest-degree monomial of h against f.

    With ``full`` the entire leading coefficient is used, giving
    N(h) + N(f) - 1 terms; otherwise half of it, giving N(h) + N(f).
    """
    mono, coeff = h.leading_term()
    step = Polynomial.monomial(h.nvars, mono, coeff if full else coeff / 2)
    return h - step + step * f


def frobenius_closure(base: Mapping[int, Polynomial], bound: int) -> Dict[int, Polynomial]:
    """Close the base under s -> s + t and s -> s + t - 1 for base values t.

    Every produced value carries a constructively built witness obtained by
    iterated tensor steps on highest-degree monomials.
    """
    if not base:
        raise ValueError("closure needs a nonempty base")
    values: Dict[int, Polynomial] = dict(base)
    base_items = sorted(base.items())
    frontier_list = sorted(values)
    while frontier_list:
        next_frontier = []
        for s in frontier_list:
            ws = values[s]
            for t, wt in base_items:
                for full in (True, False):
                    v = s + t - (1 if full else 0)
                    if v <= bound and v not in values:
                        values[v] = combine_witness(ws, wt, full)
                        next_frontier.append(v)
        frontier_list = sorted(next_frontier)
    return values


def closure_frontier(values: Iterable[int], t_min: int) -> Optional[int]:
    """Smallest a with a full run [a, a + t_min - 1]: everything above follows.

    If the set contains that run and is closed under adding t_min, induction
    gives every integer at least a.
    """
    have = set(values)
    for a in sorted(have):
        if all(a + i in have for i in range(t_min)):
            return a
    return None


# -- gap theorem verification ------------------------------------------------------


@dataclass
class GapTheoremReport:
    group: GroupSpec
    checks: List[CheckResult]
    achievable: Dict[int, Polynomial]
    gaps: List[int]
    undecided: List[int]
    frontier: Optional[int]
    exhaustive: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _validated(g: GroupSpec, value: int, G: Polynomial) -> Polynomial:
    ok, rep = _witness_check(g, value, G)
    if not ok:
        raise AssertionError(
            f"witness for N={value} failed validation (N={G.term_count()}, {rep})"
        )
    return G


def _sweep_check(g, checks, name, detail, degree, sign_mode, expected, budget, **sweep_args):
    """Sweep to ``degree``; check the sweep is exhaustive and attains exactly ``expected``."""
    rep = achievable_set(g, degree, sign_mode, budget=budget, **sweep_args)
    ok = rep.exhaustive and sorted(rep.achievable) == sorted(expected)
    checks.append(CheckResult(name, ok, detail))
    return rep


def _closure_tail(g, label, base, bound, start, absent, exhaustive, checks) -> GapTheoremReport:
    """Close the base up to ``bound`` and check that every N from ``start`` on is reached.

    Each base witness is validated here, once; the closure check validates
    only the values the closure adds.  The gaps are the values in ``absent``
    (certified absent by a sweep) that nothing witnesses: N(F) is absent
    from a sweep that skips H = 0.  ``undecided`` is every value below the
    frontier that is neither reached nor a gap.
    """
    for value, G in base.items():
        _validated(g, value, G)
    closed = frobenius_closure(base, bound)
    bad = sorted(v for v, G in closed.items() if v not in base and not _witness_check(g, v, G)[0])
    checks.append(
        CheckResult(
            f"{label}-closure-witnesses-validate",
            not bad,
            f"invalid witnesses at {bad[:5]}"
            if bad
            else f"all {len(closed)} closure witnesses special with exact N",
        )
    )
    frontier = closure_frontier(closed, min(base))
    below = ", ".join(str(v) for v in sorted(closed) if v < start)
    if bound < start:  # the range below would be empty, so nothing would be checked
        ok, detail = False, f"closure bound {bound} is below the frontier {start}"
    else:
        ok = frontier == start and all(v in closed for v in range(start, bound + 1))
        detail = (
            f"every N in [{start}, {bound}] achievable; "
            f"below {start} exactly {{{below}}} are witnessed"
        )
    checks.append(CheckResult(f"{label}-frontier", ok, detail))
    gaps = [v for v in absent if v not in closed]
    top = bound + 1 if frontier is None else frontier
    undecided = [v for v in range(1, top) if v not in closed and v not in gaps]
    return GapTheoremReport(g, checks, closed, gaps, undecided, frontier, exhaustive)


def verify_gap_theorem(
    g: GroupSpec,
    *,
    closure_bound: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> GapTheoremReport:
    """Certify the achievable set, gaps and undecided values of the group at desk scale."""
    checks: List[CheckResult] = []
    if g.family == WEIGHTED:
        verify = _verify_weighted
    elif g.family == SCALAR and g.nvars == 1:
        verify = _verify_scalar1
    elif g.family == SCALAR and g.nvars == 2:
        verify = _verify_scalar2
    else:
        verify = _verify_gamma7
    return verify(g, basic_poly_closed(g), closure_bound, budget, checks)


def _verify_scalar1(g, F, closure_bound, budget, checks):
    # F = x^m has one term, and the closure of {1} is every count
    bound = closure_bound if closure_bound is not None else N1_LIMIT
    return _closure_tail(g, "dim1", {1: F}, bound, 1, [], True, checks)


def _verify_weighted(g, F, closure_bound, budget, checks):
    p = g.order
    r = (p - 1) // 2
    if g.weights[1] != 2:
        raise ValueError("gap verification applies to the weighted family with q=2")
    bound = closure_bound if closure_bound is not None else 10 * (r + 2)
    # degree 4r + 1 covers every G with at most 2r + 2 terms
    sweep = _sweep_check(
        g, checks, "weighted-low-range-gaps",
        f"no special polynomial with 1 <= N <= {2*r+2} besides H=0",
        4 * r + 1, "signed", (), budget,
        targets=range(1, 2 * r + 3), skip_all_zero=True,
    )

    base = {F.term_count(): F}
    # A run of k consecutive middle terms, f of them at their full
    # coefficient and the rest scaled into the interior, eliminates f old
    # terms and creates r + 2k new ones: N = (2r + 2k + 2) - f.  Over
    # k <= r, f <= k this covers every value in [2r+3, 4r+2].
    for k in range(1, r + 1):
        for f in range(0, k + 1):
            terms = {}
            for j in range(1, k + 1):
                c = rat(coefficient_c(r, j))
                terms[(p - 2 * j, j)] = c if j <= f else c * LAMBDA_FIXTURE
            value = 2 * r + 2 * k + 2 - f
            if value not in base:
                base[value] = tensor_step(F, Polynomial(2, terms))
    base_ok = all(v in base for v in range(2 * r + 3, 4 * r + 3))
    detail = f"explicit witnesses for N = {r+2} and every N in [{2*r+3}, {4*r+2}]"
    checks.append(CheckResult("weighted-base-witnesses", base_ok, detail))
    return _closure_tail(
        g, "weighted", base, bound, 2 * r + 3, sweep.proven_gaps, sweep.exhaustive, checks
    )


def _verify_scalar2(g, F, closure_bound, budget, checks):
    m = g.order
    bound = closure_bound if closure_bound is not None else 10 * (m + 1)
    # Any G with N <= 2m has degree <= 4m - 3, hence degree in {m, 2m, 3m}.
    sweep = _sweep_check(
        g, checks, "dim2-low-range-gaps",
        f"with nonnegative H no N in [1, {2*m}] beyond H=0 (which gives {m+1})",
        3 * m, "nonneg", (), budget,
        targets=range(1, 2 * m + 1), skip_all_zero=True,
    )

    base = {F.term_count(): F, 2 * m + 1: tensor_step(F, Polynomial.monomial(2, (m, 0)))}
    f_terms = list(F.iter_terms())
    for k in range(1, m + 2):
        H = Polynomial(2, {mono: c * LAMBDA_FIXTURE for mono, c in f_terms[:k]})
        base[m + 1 + m + k] = tensor_step(F, H)
    return _closure_tail(
        g, "dim2", base, bound, 2 * m + 1, sweep.proven_gaps, sweep.exhaustive, checks
    )


# The gamma7 sweeps of degree 10 to 13, in order: (check name, detail, degree,
# sought values or None for all, exact H degree or None, the values attained).
GAMMA7_SWEEPS = [
    ("gamma7-degree10-set", "degree-10 family attains exactly {17, 29, 30}",
     10, None, None, (17, 29, 30)),
    ("gamma7-degree11-floor", "degree exactly 11 forces at least 31 terms",
     11, range(1, 31), 4, ()),
    ("gamma7-degree12-floor", "degree exactly 12 forces at least 33 terms",
     12, range(1, 33), 5, ()),
    ("gamma7-degree13-floor",
     "across degree <= 13 only N=17 (from H=0) occurs at or below 28; "
     "31, 35, 36 do not occur at degree <= 13 either",
     13, sorted(set(range(1, 29)) | {31, 35, 36}), None, (17,)),
]


def _verify_gamma7(g, F, closure_bound, budget, checks):
    bound = closure_bound if closure_bound is not None else 120
    # degree <= 9: no room for a nonzero H
    checks.append(
        CheckResult(
            "gamma7-degree9-rigid",
            not build_coefficient_family(g, 2, "signed").params,
            "no invariant monomial of degree <= 2, so only H = 0 below degree 10",
        )
    )
    sweeps = [
        _sweep_check(
            g, checks, name, detail, degree, "signed", attained, budget,
            targets=targets, h_degree_exact=h_exact,
        )
        for name, detail, degree, targets, h_exact, attained in GAMMA7_SWEEPS
    ]
    # a value absent to degree 13 is a gap when no larger degree can attain it
    absent = [v for v in sweeps[-1].proven_gaps if degree_bound(3, v) <= 13]
    checks.append(
        CheckResult(
            "gamma7-gap-scope",
            all(degree_bound(3, v) <= 13 for v in range(1, 29)),
            "degree estimate: N <= 28 implies degree <= 13, so [1,16] and [18,28] are gaps",
        )
    )
    checks.append(
        CheckResult(
            "gamma7-undecided-scope",
            degree_bound(3, 36) == 17,
            "N in {31, 35, 36} could live in degree up to 17; degree-13 absence is not final",
        )
    )
    base = {n: tensor_step(F, catalog_h(h_terms, 3)) for _, h_terms, n in GAMMA7_CATALOG}
    exhaustive = all(rep.exhaustive for rep in sweeps)
    return _closure_tail(g, "gamma7", base, bound, 37, absent, exhaustive, checks)


# -- targeted search ---------------------------------------------------------------


@dataclass
class SearchReport:
    group: GroupSpec
    targets: List[int]
    degree_bound: int
    found: Dict[int, Polynomial]  # value -> witness H
    exhaustive: bool
    unconditional: bool
    stats: SweepStats

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json_dict(),
            "targets": self.targets,
            "degree_bound": self.degree_bound,
            "found": {str(v): h.to_json_dict() for v, h in sorted(self.found.items())},
            "exhaustive": self.exhaustive,
            "unconditional": self.unconditional,
            "stats": asdict(self.stats),
        }


def search_targets(
    g: GroupSpec,
    targets: Iterable[int],
    degree_bound_value: int,
    *,
    sign_mode: str = "signed",
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Directed hunt for special polynomials with the given term counts.

    Absence claims are always scoped by the degree bound; they are
    unconditional only when the degree estimate says no larger degree could
    attain any target.
    """
    target_list = sorted(int(v) for v in targets)
    if not target_list:
        raise ValueError("no targets given")
    if target_list[0] < 1:
        raise ValueError(f"term count must be positive (target {target_list[0]})")
    # the degree estimate rejects a target it has no bound for before any sweep
    needed = max(degree_bound(g.nvars, v) for v in target_list) if g.nvars >= 2 else None
    rep = achievable_set(
        g,
        degree_bound_value,
        sign_mode,
        targets=target_list,
        budget=budget,
    )
    unconditional = needed is not None and rep.exhaustive and degree_bound_value >= needed
    return SearchReport(
        group=g,
        targets=target_list,
        degree_bound=degree_bound_value,
        found=rep.achievable,
        exhaustive=rep.exhaustive,
        unconditional=unconditional,
        stats=rep.stats,
    )
