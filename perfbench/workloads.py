"""The benchmark's three workloads and their frozen expected outcomes.

A workload is a list of operations.  Each operation runs one call a user
of invsp would make (a sweep, a CLI command, a closure, a round trip),
checks its result against outcomes frozen from the paper's results, and
renders a canonical fingerprint of the report so that two passes (traced
and untraced, or first and last) can be compared for identity.

Only ``closure-roundtrip`` draws from the seed; the other two workloads are
fixed computations whose inputs are the group specs themselves.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List

WORKLOADS = ("gamma7-triple", "sparsity-cubic", "closure-roundtrip")

# The degree-17 sweep is defined by this node budget (as run_l0_sweep counts
# nodes today); changing what the budget counts changes the workload.
D17_BUDGET = 5000
CLOSURE_BOUND = 200
ROUNDTRIP_GROUPS = ("gamma7", "weighted:7:2", "weighted:11:2", "scalar:3:2")
ROUNDTRIPS_PER_GROUP = 16

# gamma7 closure of the catalog to 200: every witnessed value below the
# frontier 37, then everything from 37 up.
CLOSURE_VALUES = sorted({17, 29, 30, 32, 33, 34} | set(range(37, CLOSURE_BOUND + 1)))
SPARSITY_ACHIEVABLE = [4, 7, 8, 9, 10, 11]
SPARSITY_ABSENT = [0, 1, 2, 3, 5, 6]
UNDECIDED_TRIPLE = [31, 35, 36]


@dataclass
class Op:
    """One timed call plus its correctness check and report fingerprint."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]  # problems found; empty means correct
    fingerprint: Callable[[object], object]  # JSON-able rendering of the report


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_invsp():
    """Import the package's modules (the package must be on sys.path)."""
    names = ("rat", "polycore", "groups", "construct", "transform",
             "affinefamily", "ratlp", "sweep", "gapsearch", "cli")
    return SimpleNamespace(
        **{n: importlib.import_module(f"invsp.{n}") for n in names}
    )


def build(m, workload: str, seed: int) -> List[Op]:
    """Generate the workload's inputs and return its operations."""
    if workload == "gamma7-triple":
        return _gamma7_triple(m)
    if workload == "sparsity-cubic":
        return _sparsity_cubic(m)
    if workload == "closure-roundtrip":
        return _closure_roundtrip(m, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _witness_problems(m, g, F, value, H) -> List[str]:
    G = m.transform.tensor_step(F, H)
    rep = m.transform.validate_special(g, G)
    if not rep.is_special or G.term_count() != value:
        return [f"witness for N={value} fails validation ({rep})"]
    return []


# -- gamma7-triple ----------------------------------------------------------------


def _gamma7_triple(m) -> List[Op]:
    g = m.groups.parse_group("gamma7")
    F = m.construct.basic_poly_closed(g)
    budget = m.sweep.DEFAULT_BUDGET  # pinned: INVSP_BUDGET must not change the workload

    def sweep_op(d, expected, targets=None, h_exact=None, absent=()):
        def run():
            return m.gapsearch.achievable_set(
                g, d, "signed", targets=targets, h_degree_exact=h_exact, budget=budget
            )

        def check(rep):
            problems = []
            if not rep.exhaustive:
                problems.append(f"degree {d}: sweep not exhaustive")
            if sorted(rep.achievable) != expected:
                problems.append(f"degree {d}: achievable {sorted(rep.achievable)} != {expected}")
            missing = set(absent) - set(rep.proven_gaps)
            if missing:
                problems.append(f"degree {d}: absence of {sorted(missing)} not certified")
            for value, H in rep.achievable.items():
                problems += _witness_problems(m, g, F, value, H)
            return problems

        return Op(f"d{d}", run, check, lambda rep: rep.to_json_dict())

    def d17_run():
        out = io.StringIO()
        argv = ["gaps", "--group", "gamma7", "--max-degree", "17",
                "--targets", ",".join(map(str, UNDECIDED_TRIPLE)),
                "--budget", str(D17_BUDGET), "--format", "json"]
        with contextlib.redirect_stdout(out):
            code = m.cli.main(argv)
        return code, out.getvalue()

    def d17_check(result):
        code, text = result
        data = json.loads(text)
        problems = []
        if code == 3:
            if data["exhaustive"] or data["unconditional"]:
                problems.append("degree 17: inconclusive exit but an absence is claimed")
        elif code == 0:
            if not data["exhaustive"]:
                problems.append("degree 17: success exit without an exhaustive sweep")
        else:
            problems.append(f"degree 17: unexpected exit code {code}")
        for key, poly in data["found"].items():
            value = int(key)
            if value not in UNDECIDED_TRIPLE:
                problems.append(f"degree 17: found untargeted value {value}")
            H = m.polycore.Polynomial.from_json_dict(poly)
            problems += _witness_problems(m, g, F, value, H)
        return problems

    gaps13 = [v for v in range(1, 29) if v != 17]
    return [
        sweep_op(9, [17]),
        sweep_op(10, [17, 29, 30]),
        sweep_op(11, [], targets=range(1, 31), h_exact=4),
        sweep_op(12, [], targets=range(1, 33), h_exact=5),
        sweep_op(13, [17], targets=sorted(set(range(1, 29)) | set(UNDECIDED_TRIPLE)),
                 absent=[v for v in gaps13 if v >= 18] + UNDECIDED_TRIPLE),
        Op("d17", d17_run, d17_check, lambda result: list(result)),
    ]


# -- sparsity-cubic ---------------------------------------------------------------


def _sparsity_cubic(m) -> List[Op]:
    g = m.groups.parse_group("scalar:3:2")

    def l0_op(orthant: bool):
        def run():
            fam = m.affinefamily.build_coefficient_family(g, 3, "signed")
            return fam, m.sweep.run_l0_sweep(
                fam, orthant=orthant, budget=m.sweep.DEFAULT_BUDGET
            )

        def check(result):
            fam, rep = result
            problems = []
            if not rep.exhaustive:
                problems.append("sweep not exhaustive")
            if sorted(rep.achievable) != SPARSITY_ACHIEVABLE:
                problems.append(f"achievable {sorted(rep.achievable)} != {SPARSITY_ACHIEVABLE}")
            if rep.certified_absent != SPARSITY_ABSENT:
                problems.append(f"certified absent {rep.certified_absent} != {SPARSITY_ABSENT}")
            for value, point in rep.achievable.items():
                slots = fam.evaluate_slots(point)
                if sum(1 for s in slots if s != 0) != value:
                    problems.append(f"witness for {value} has the wrong nonzero count")
                if orthant and any(s < 0 for s in slots):
                    problems.append(f"witness for {value} leaves the orthant")
            return problems

        return Op("orthant" if orthant else "free-sign", run, check,
                  lambda result: result[1].to_json_dict())

    return [l0_op(True), l0_op(False)]


# -- closure-roundtrip ------------------------------------------------------------


def roundtrip_inputs(m, seed: int):
    """Seeded special-preserving H per group: [(group spec, [(mono, num, den)])].

    Each H takes k of F's monomials (k cycling through 1..|F| so that every
    seed does a similar amount of work) with coefficient F_m * num/den in
    (0, F_m].  Such an H keeps G = F - H + H*F special: H*F is nonnegative
    and F_m - H_m >= 0 on H's support.
    """
    rng = random.Random(seed)
    out = []
    for spec in ROUNDTRIP_GROUPS:
        F = m.construct.basic_poly_closed(m.groups.parse_group(spec))
        monos = [mono for mono, _ in F.iter_terms()]
        for i in range(ROUNDTRIPS_PER_GROUP):
            k = 1 + i % len(monos)
            chosen = sorted(rng.sample(monos, k))
            terms = []
            for mono in chosen:
                den = rng.choice((2, 3, 4, 5, 7))
                terms.append((mono, rng.randint(1, den), den))
            out.append((spec, terms))
    return out


def _closure_roundtrip(m, seed: int) -> List[Op]:
    g = m.groups.parse_group("gamma7")
    F = m.construct.basic_poly_closed(g)
    base = {}
    for _, h_terms, expected_n in m.gapsearch.GAMMA7_CATALOG:
        G = m.transform.tensor_step(F, m.gapsearch.catalog_h(h_terms, 3))
        base.setdefault(expected_n, G)

    def closure_run():
        closed = m.gapsearch.frobenius_closure(base, CLOSURE_BOUND)
        reports = {v: m.transform.validate_special(g, G) for v, G in closed.items()}
        frontier = m.gapsearch.closure_frontier(closed, F.term_count())
        return closed, reports, frontier

    def closure_check(result):
        closed, reports, frontier = result
        problems = []
        if sorted(closed) != CLOSURE_VALUES:
            problems.append(f"closure holds {len(closed)} values, expected {len(CLOSURE_VALUES)}")
        bad = [v for v, rep in reports.items()
               if not rep.is_special or rep.n_terms != v or closed[v].term_count() != v]
        if bad:
            problems.append(f"closure witnesses fail validation at {bad[:5]}")
        if frontier != 37:
            problems.append(f"frontier {frontier} != 37")
        return problems

    ops = [Op("closure", closure_run, closure_check,
              lambda result: digest({str(v): G.to_json_dict()
                                     for v, G in sorted(result[0].items())}))]

    groups = {spec: m.groups.parse_group(spec) for spec in ROUNDTRIP_GROUPS}
    basics = {spec: m.construct.basic_poly_closed(gr) for spec, gr in groups.items()}
    rat = m.rat.rat
    for i, (spec, terms) in enumerate(roundtrip_inputs(m, seed)):
        gr, Fg = groups[spec], basics[spec]
        H = m.polycore.Polynomial(
            gr.nvars, {mono: Fg.coefficient(mono) * rat(num, den) for mono, num, den in terms}
        )
        ops.append(_roundtrip_op(m, f"rt{i}:{spec}", gr, Fg, H))
    return ops


def _roundtrip_op(m, name, g, F, H) -> Op:
    def run():
        G = m.transform.tensor_step(F, H)
        rep = m.transform.validate_special(g, G)
        return G, rep, m.transform.quotient_H(g, G)

    def check(result):
        G, rep, recovered = result
        problems = []
        if not rep.is_special or rep.n_terms != G.term_count():
            problems.append(f"G is not special ({rep})")
        if recovered != H:
            problems.append("quotient_H did not return H")
        return problems

    return Op(name, run, check,
              lambda result: digest([result[0].to_json_dict(), result[2].to_json_dict()]))
