"""Command-line interface.

Subcommands:

* ``basic-poly``   construct the basic polynomial of a group
* ``tensor``       apply G = F - H + H*F and validate the result
* ``validate``     check the defining properties of a polynomial
* ``family``       build / instantiate / sweep an affine coefficient family
* ``gaps``         achievability / gap report for a group up to a degree
* ``closure``      postage-stamp closure of a base of witnessed values
* ``verify-paper`` run the complete fixture and theorem ledger

Every subcommand takes ``--format``.  The three that sweep (``gaps``,
``family l0range`` and ``verify-paper``) also take ``--budget`` (the node
bound on each sweep, default :data:`invsp.sweep.DEFAULT_BUDGET`).  Every
sweep runs in this one process.

Exit codes: 0 success / verified; 1 verification mismatch; 2 usage or
input error; 3 budget exhausted (search inconclusive).  Output is
deterministic for fixed inputs and budgets.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import asdict
from typing import Optional

from . import gapsearch
from .affinefamily import AffineFamily, build_coefficient_family, instantiate
from .construct import (
    basic_poly,
    basic_poly_closed,
    basic_poly_product,
    coefficient_c,
    is_prime,
    mod_reduction_check,
)
from .groups import GroupSpec, parse_group
from .polycore import Polynomial
from .rat import rat
from .sweep import DEFAULT_BUDGET, run_l0_sweep
from .transform import degree_bound, group_free_failures, tensor_step, validate_special

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(Exception):
    pass


def _emit(data: dict, fmt: str, text_renderer=None) -> None:
    if fmt != "json" and text_renderer:
        text_renderer(data)
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def _load_poly(path: str) -> Polynomial:
    data = _load_json_file(path)
    try:
        return Polynomial.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad polynomial in {path}: {exc}")


def _load_family(path: str) -> AffineFamily:
    data = _load_json_file(path)
    try:
        return AffineFamily.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad family in {path}: {exc}")


def _group(text: str) -> GroupSpec:
    try:
        return parse_group(text)
    except ValueError as exc:
        raise UsageError(str(exc))


# -- subcommand implementations ---------------------------------------------------


def cmd_basic_poly(args) -> int:
    g = _group(args.group)
    if args.method == "both":
        closed = basic_poly_closed(g)
        product = basic_poly(g, "product")
        if closed != product:
            print("mismatch between closed and product constructions", file=sys.stderr)
            return EXIT_MISMATCH
        poly = closed
    else:
        poly = basic_poly(g, args.method)
    _emit(
        poly.to_json_dict(),
        args.format,
        lambda d: print(f"{poly}  [terms={poly.term_count()}, degree={poly.degree()}]"),
    )
    return EXIT_OK


def cmd_tensor(args) -> int:
    g = _group(args.group)
    H = _load_poly(args.h)
    F = basic_poly_closed(g)
    G = tensor_step(F, H)
    report = validate_special(g, G)
    data = {"g": G.to_json_dict(), "report": report.to_json_dict()}
    _emit(
        data,
        args.format,
        lambda d: print(
            f"G = {G}\nterms={G.term_count()} degree={G.degree()} special={report.is_special}"
        ),
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _group(args.group)
    poly = _load_poly(args.poly)
    report = validate_special(g, poly)
    _emit(
        report.to_json_dict(),
        args.format,
        lambda d: print(
            "\n".join(f"{k}: {v}" for k, v in report.to_json_dict().items())
        ),
    )
    return EXIT_OK


def cmd_family_build(args) -> int:
    fam = build_coefficient_family(_group(args.group), args.h_degree, args.sign_mode)
    _emit(
        fam.to_json_dict(),
        args.format,
        lambda d: print("\n".join(f"{s.mono}: {s.form}" for s in fam.slots)),
    )
    return EXIT_OK


def cmd_family_instantiate(args) -> int:
    fam = _load_family(args.family)
    point_data = (
        json.loads(args.point) if args.point.strip().startswith("{") else _load_json_file(args.point)
    )
    try:
        point = {k: rat(v) for k, v in point_data.items()}
        poly = instantiate(fam, point)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad parameter point: {exc}")
    _emit(
        poly.to_json_dict(),
        args.format,
        lambda d: print(f"{poly}  [terms={poly.term_count()}]"),
    )
    return EXIT_OK


def cmd_family_l0range(args) -> int:
    fam = _load_family(args.family)
    report = run_l0_sweep(
        fam,
        orthant=args.orthant,
        sought=_parse_targets(args.targets) if args.targets else None,
        budget=args.budget,
    )
    _emit(
        report.to_json_dict(),
        args.format,
        lambda d: print(
            f"achievable: {sorted(report.achievable)}\n"
            f"certified absent: {report.certified_absent}\n"
            f"exhaustive: {report.exhaustive}"
        ),
    )
    return EXIT_OK if report.exhaustive else EXIT_INCONCLUSIVE


def _parse_targets(text: str):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            a, b = (int(end) for end in chunk.split("-", 1))
            if a > b:
                raise UsageError(f"reversed target range {chunk}")
            out.extend(range(a, b + 1))
        else:
            out.append(int(chunk))
    if not out:
        raise UsageError("empty target list")
    return out


def cmd_gaps(args) -> int:
    g = _group(args.group)
    sign_mode = "nonneg" if args.nonneg_h else "signed"
    if args.targets:
        if args.h_degree_exact is not None or args.value_cap is not None:
            raise UsageError("--targets cannot be combined with --h-degree-exact or --value-cap")
        targets = _parse_targets(args.targets)
        report = gapsearch.search_targets(
            g,
            targets,
            args.max_degree,
            sign_mode=sign_mode,
            budget=args.budget,
        )
        _emit(
            report.to_json_dict(),
            args.format,
            lambda d: print(
                f"targets: {report.targets}\nfound: {sorted(report.found)}\n"
                f"exhaustive within degree {report.degree_bound}: {report.exhaustive}\n"
                f"unconditional: {report.unconditional}"
            ),
        )
        return EXIT_OK if report.exhaustive else EXIT_INCONCLUSIVE

    value_cap = args.value_cap
    if value_cap is None:
        F = basic_poly_closed(g)
        h_degree = args.max_degree - F.degree()
        fam_size_guess = 2 * F.term_count() + 2
        value_cap = fam_size_guess if h_degree > 3 else None
    elif value_cap < 0:
        raise UsageError(f"--value-cap must be nonnegative, not {value_cap}")
    report = gapsearch.achievable_set(
        g,
        args.max_degree,
        sign_mode,
        targets=None if value_cap is None else range(value_cap + 1),
        h_degree_exact=args.h_degree_exact,
        budget=args.budget,
    )
    scope = f"within degree {report.degree_bound}"
    if args.h_degree_exact is not None:
        scope += f", H of exact degree {args.h_degree_exact}"
    _emit(
        report.to_json_dict(),
        args.format,
        lambda d: print(
            f"achievable: {sorted(report.achievable)}\n"
            f"proven gaps ({scope}): {report.proven_gaps}\n"
            f"exhaustive: {report.exhaustive}"
        ),
    )
    return EXIT_OK if report.exhaustive else EXIT_INCONCLUSIVE


def cmd_closure(args) -> int:
    data = _load_json_file(args.base)
    try:
        entries = [
            (operator.index(entry["n"]), Polynomial.from_json_dict(entry["poly"]))
            for entry in data
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad closure base: {exc}")
    for i, (n, poly) in enumerate(entries):
        if poly.term_count() != n:
            raise UsageError(f"bad closure base: entry {i} has n={n} but {poly.term_count()} terms")
        failed = group_free_failures(poly)
        if failed:
            raise UsageError(
                f"bad closure base: entry {i} is not special: fails {', '.join(failed)}"
            )
    base = dict(entries)
    closed = gapsearch.frobenius_closure(base, args.bound)
    bad = [
        v for v, poly in sorted(closed.items())
        if poly.term_count() != v or group_free_failures(poly)
    ]
    if bad:
        print(f"closure witnesses that fail the special checks: {bad}", file=sys.stderr)
        return EXIT_MISMATCH
    t_min = min(base)
    frontier = gapsearch.closure_frontier(closed, t_min)
    out = {
        "values": sorted(closed),
        "frontier": frontier,
        "witnesses": {str(v): poly.to_json_dict() for v, poly in sorted(closed.items())},
    }
    _emit(
        out,
        args.format,
        lambda d: print(f"values: {sorted(closed)}\nfrontier: {frontier}"),
    )
    return EXIT_OK


# -- the verification ledger -------------------------------------------------------


def _ledger_checks(budget: int, closure_bound: Optional[int]):
    checks = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(gapsearch.CheckResult(name, bool(ok), detail))

    # dual construction for the weighted family at prime orders
    for p in (3, 5, 7, 11, 13, 17, 19):
        g = GroupSpec.weighted(p, 2)
        ok = basic_poly_closed(g) == basic_poly_product(p, (1, 2), 2)
        add(f"dual-construction-weighted-{p}", ok, "closed form equals product form")
    gamma = GroupSpec.gamma7()
    prod7 = basic_poly_product(7, (1, 2, 4), 3)
    add(
        "dual-construction-gamma7",
        basic_poly_closed(gamma) == prod7 and prod7.degree() == 7,
        "17-term fixture equals product form, degree 7",
    )
    add(
        "dual-construction-scalar-5",
        basic_poly_product(5, (1, 1), 2)
        == basic_poly_closed(GroupSpec.scalar(5, 2)),
        "product form collapses to (x+y)^5",
    )

    # degree-11 weighted basic polynomial, exact coefficients
    f11 = basic_poly_closed(GroupSpec.weighted(11, 2))
    expected_f11 = Polynomial(
        2,
        {
            (11, 0): 1,
            (0, 11): 1,
            (9, 1): 11,
            (7, 2): 44,
            (5, 3): 77,
            (3, 4): 55,
            (1, 5): 11,
        },
    )
    add("weighted-11-coefficients", f11 == expected_f11 and f11.term_count() == 7)

    # divisibility of middle coefficients versus primality
    ok = all(mod_reduction_check(r) == is_prime(2 * r + 1) for r in range(1, 23))
    add("middle-coefficient-divisibility", ok, "matches primality of 2r+1 for 2r+1 <= 45")

    ok = [coefficient_c(5, j) for j in range(1, 6)] == [11, 44, 77, 55, 11]
    add("coefficient-row-r5", ok)

    # degree estimates
    add(
        "degree-estimates",
        degree_bound(2, 12) == 21
        and degree_bound(3, 29) == 14
        and degree_bound(3, 36) == 17,
    )

    # fixture catalogs
    for g, label in (
        (gamma, "gamma7"),
        (GroupSpec.weighted(11, 2), "weighted11"),
        (GroupSpec.scalar(2, 2), "scalar22"),
    ):
        for result in gapsearch.verify_fixtures(g):
            add(f"fixture-{label}-{result.name}", result.passed, result.detail)

    # affine family table fidelity (generated forms against the reference tables)
    from .reference_tables import degree11_reference, degree13_reference

    fam11 = build_coefficient_family(gamma, 4, "signed")
    fam13 = build_coefficient_family(gamma, 6, "signed")
    ok11, detail11 = _table_match(fam11, degree11_reference())
    ok13, detail13 = _table_match(fam13, degree13_reference())
    add("table-degree11", ok11, detail11)
    add("table-degree13", ok13, detail13)

    # sparsity of the two-variable quadratic-invariant affine map
    fam = build_coefficient_family(GroupSpec.scalar(2, 2), 2, "signed")
    free = run_l0_sweep(fam, orthant=False, budget=budget)
    orthant = run_l0_sweep(fam, orthant=True, budget=budget)
    add(
        "sparse-map-unconstrained",
        free.exhaustive
        and {3, 4, 5, 8} <= set(free.achievable)
        and {1, 2}.isdisjoint(free.achievable),
        "values 3,4,5,8 attained; 1 and 2 are gaps",
    )
    add(
        "sparse-map-orthant",
        orthant.exhaustive
        and 4 not in orthant.achievable
        and {3, 5} <= set(orthant.achievable),
        "4 becomes a gap when every coordinate must be nonnegative",
    )

    # gap theorems
    for r in (1, 2, 3):
        rep = gapsearch.verify_gap_theorem(GroupSpec.weighted(2 * r + 1, 2), budget=budget)
        add(
            f"gap-theorem-weighted-r{r}",
            rep.all_passed and rep.exhaustive,
            f"min {r+2}; gaps {rep.gaps}; frontier {rep.frontier}",
        )
    for m in (2, 3, 4):
        rep = gapsearch.verify_gap_theorem(GroupSpec.scalar(m, 2), budget=budget)
        add(
            f"gap-theorem-dim2-m{m}",
            rep.all_passed and rep.exhaustive,
            f"gaps {rep.gaps}; frontier {rep.frontier}",
        )
    rep = gapsearch.verify_gap_theorem(GroupSpec.scalar(3, 1), budget=budget)
    add("gap-theorem-dim1-m3", rep.all_passed, "every positive count achievable")

    rep = gapsearch.verify_gap_theorem(gamma, budget=budget, closure_bound=closure_bound)
    checks += rep.checks
    add(
        "gamma7-undecided-triple",
        rep.undecided == [31, 35, 36],
        "31, 35, 36 stay undecided (absence shown only up to degree 13)",
    )
    return checks


def _table_match(fam, reference):
    mismatches = []
    seen = set()
    for mono, form in reference.items():
        try:
            actual = fam.form_at(mono)
        except KeyError:
            mismatches.append(f"missing slot {mono}")
            continue
        seen.add(mono)
        if actual != form:
            mismatches.append(f"{mono}: built {actual} vs reference {form}")
    for s in fam.slots:
        if s.mono not in seen:
            mismatches.append(f"extra slot {s.mono}")
    if mismatches:
        return False, "; ".join(mismatches[:4])
    return True, f"all {len(reference)} coefficient forms agree"


def cmd_verify_paper(args) -> int:
    checks = _ledger_checks(args.budget, args.closure_bound)
    passed = sum(1 for c in checks if c.passed)
    data = {
        "checks": [asdict(c) for c in checks],
        "passed": passed,
        "failed": len(checks) - passed,
        "total": len(checks),
    }
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        width = max(len(c.name) for c in checks)
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"{c.name:<{width}}  {mark}"
            if c.detail:
                line += f"  {c.detail}"
            print(line)
        print(f"\n{passed}/{len(checks)} checks passed")
    return EXIT_OK if passed == len(checks) else EXIT_MISMATCH


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invsp",
        description="exact invariant special polynomials: construction, sparsity, gaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def formatted(p, default_format="json"):
        p.add_argument("--format", choices=("text", "json"), default=default_format)

    def sweeping(p, default_format="json"):
        formatted(p, default_format)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="node bound per sweep")

    p = sub.add_parser("basic-poly", help="construct the basic polynomial")
    p.add_argument("--group", required=True)
    p.add_argument("--method", choices=("closed", "product", "both"), default="closed")
    formatted(p)
    p.set_defaults(func=cmd_basic_poly)

    p = sub.add_parser("tensor", help="apply G = F - H + H*F")
    p.add_argument("--group", required=True)
    p.add_argument("--h", required=True, help="polynomial JSON file for H")
    formatted(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("validate", help="validate a polynomial against a group")
    p.add_argument("--group", required=True)
    p.add_argument("poly", help="polynomial JSON file")
    formatted(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("family", help="affine coefficient family operations")
    fam_sub = p.add_subparsers(dest="family_cmd", required=True)
    b = fam_sub.add_parser("build")
    b.add_argument("--group", required=True)
    b.add_argument("--h-degree", type=int, required=True)
    b.add_argument("--sign-mode", choices=("signed", "nonneg"), default="signed")
    formatted(b)
    b.set_defaults(func=cmd_family_build)
    i = fam_sub.add_parser("instantiate")
    i.add_argument("--family", required=True)
    i.add_argument("--point", required=True, help="JSON object or file of parameter values")
    formatted(i)
    i.set_defaults(func=cmd_family_instantiate)
    l = fam_sub.add_parser("l0range", help="sparsity sweep of a family file")
    l.add_argument("--family", required=True, help="family JSON file")
    l.add_argument("--targets")
    side = l.add_mutually_exclusive_group()
    side.add_argument("--orthant", dest="orthant", action="store_true", default=None)
    side.add_argument("--no-orthant", dest="orthant", action="store_false")
    sweeping(l)
    l.set_defaults(func=cmd_family_l0range)

    p = sub.add_parser("gaps", help="achievable term counts and gaps for a group")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--nonneg-h", action="store_true", help="restrict H to nonnegative coefficients")
    p.add_argument("--targets", help="comma list / ranges, e.g. 31,35,36 or 18-28")
    p.add_argument("--value-cap", type=int)
    p.add_argument("--h-degree-exact", type=int)
    sweeping(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser(
        "closure",
        help="postage-stamp closure of witnessed values",
        description=(
            "Postage-stamp closure of a base of witnessed values. Every base entry and "
            "every produced witness must have n terms, be 1 on the hyperplane, have "
            "positive coefficients and vanish at the origin. No group is given, so "
            "invariance is not checked."
        ),
    )
    p.add_argument("--base", required=True, help='JSON file: [{"n": 17, "poly": {...}}, ...]')
    p.add_argument("--bound", type=int, required=True)
    formatted(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("verify-paper", help="run the full verification ledger")
    p.add_argument("--closure-bound", type=int)
    sweeping(p, default_format="text")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        print("budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
