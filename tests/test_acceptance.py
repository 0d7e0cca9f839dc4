"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact (rational equality or integer set equality);
the only numeric allowances are the stated wall-clock runtime targets.
"""

import json
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsp.affinefamily import build_coefficient_family
from invsp.cli import main as cli_main
from invsp.construct import (
    basic_poly_closed,
    basic_poly_product,
    coefficient_c,
    is_prime,
    mod_reduction_check,
)
from invsp.gapsearch import (
    GAMMA7_CATALOG,
    achievable_set,
    verify_fixtures,
    verify_gap_theorem,
)
from invsp.groups import GroupSpec, enumerate_invariant_monomials, is_invariant
from invsp.polycore import Polynomial, is_one_on_hyperplane
from invsp.rat import rat
from invsp.sweep import run_l0_sweep
from invsp.transform import quotient_H, tensor_step

from conftest import polynomials, rationals

G7 = GroupSpec.gamma7()
F7 = basic_poly_closed(G7)


def report(n, text):
    print(f"ACCEPTANCE-{n:02d} PASS: {text}")


def test_criterion_01_dual_construction():
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13, 17, 19):
        closed = basic_poly_closed(GroupSpec.weighted(p, 2))
        assert basic_poly_product(p, (1, 2), 2) == closed
    assert basic_poly_product(7, (1, 2, 4), 3) == F7
    assert F7.term_count() == 17
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"closed and product constructions agree exactly ({elapsed:.2f}s)")


def test_criterion_02_degree11_coefficients():
    f11 = basic_poly_closed(GroupSpec.weighted(11, 2))
    expected = Polynomial(
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
    assert f11 == expected
    assert f11.term_count() == 7
    report(2, "order-11 weighted basic polynomial matches coefficient for coefficient")


def test_criterion_03_divisibility_vs_primality():
    for r in range(1, 23):  # every odd 2r+1 up to 45
        assert mod_reduction_check(r) == is_prime(2 * r + 1)
    report(3, "middle-coefficient divisibility coincides with primality up to 45")


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_criterion_04_weighted_gap_theorem(r):
    start = time.monotonic()
    bound = 10 * (r + 2)
    rep = verify_gap_theorem(GroupSpec.weighted(2 * r + 1, 2), closure_bound=bound)
    assert rep.all_passed and rep.exhaustive
    # minimum r+2 attained only by H = 0; the whole low range is otherwise empty
    assert rep.gaps == [v for v in range(1, 2 * r + 3) if v != r + 2]
    assert (r + 2) in rep.achievable
    assert (2 * r + 3) in rep.achievable and (2 * r + 4) in rep.achievable
    assert all(v in rep.achievable for v in range(2 * r + 3, bound + 1))
    elapsed = time.monotonic() - start
    if r == 5:
        assert elapsed < 60.0
    report(4, f"weighted order {2*r+1}: min {r+2}, gap [{r+3},{2*r+2}], "
              f"all of [{2*r+3},{bound}] achievable ({elapsed:.2f}s)")


def test_criterion_05_fixture_catalog():
    start = time.monotonic()
    results = verify_fixtures(G7)
    by_name = {res.name: res for res in results}
    assert all(res.passed for res in results), [r.name for r in results if not r.passed]
    assert len(GAMMA7_CATALOG) == 27
    assert by_name["n41-cancellation"].passed
    assert by_name["n51-alt"].passed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(5, f"all 27 cataloged examples, the alternate 51, and the cancellation "
              f"reproduce exactly ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def degree13_sweep():
    sought = sorted(set(range(1, 29)) | {31, 35, 36})
    return achievable_set(G7, 13, "signed", targets=sought)


def test_criterion_06_low_degree_structure(degree13_sweep):
    start = time.monotonic()
    rep9 = achievable_set(G7, 9, "signed")
    assert rep9.exhaustive and sorted(rep9.achievable) == [17]

    rep10 = achievable_set(G7, 10, "signed")
    assert rep10.exhaustive and sorted(rep10.achievable) == [17, 29, 30]

    rep11 = achievable_set(G7, 11, "signed", targets=range(1, 31), h_degree_exact=4)
    assert rep11.exhaustive and not rep11.achievable

    rep12 = achievable_set(G7, 12, "signed", targets=range(1, 33), h_degree_exact=5)
    assert rep12.exhaustive and not rep12.achievable

    rep13 = degree13_sweep
    assert rep13.exhaustive
    assert sorted(rep13.achievable) == [17]
    assert set(range(18, 29)).issubset(rep13.proven_gaps)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    report(6, f"degree structure: <=9 rigid, 10 gives {{17,29,30}}, 11 forces >=31, "
              f"12 forces >=33, 13 forces >=29 ({elapsed:.2f}s)")


def test_degree13_report_is_pinned(degree13_sweep):
    """The decisive sweep's witnesses, gaps and search counters, bit for bit."""
    path = Path(__file__).parent / "fixtures" / "gamma7_d13_report.json"
    expected = json.loads(path.read_text())
    rep = degree13_sweep
    assert {str(v): h.to_json_dict() for v, h in rep.achievable.items()} == expected["achievable"]
    assert rep.proven_gaps == expected["proven_gaps"]
    assert rep.exhaustive == expected["exhaustive"]
    assert asdict(rep.stats) == expected["stats"]


def test_criterion_07_table_fidelity():
    from invsp.reference_tables import degree11_reference, degree13_reference

    fam11 = build_coefficient_family(G7, 4, "signed")
    fam13 = build_coefficient_family(G7, 6, "signed")
    for fam, reference in ((fam11, degree11_reference()), (fam13, degree13_reference())):
        assert {s.mono for s in fam.slots} == set(reference)
        for mono, form in reference.items():
            assert fam.form_at(mono) == form, mono
    report(7, "generated degree-11 and degree-13 coefficient forms match the "
              "reference tables entry for entry")


def test_criterion_08_sparse_affine_map():
    start = time.monotonic()
    fam = build_coefficient_family(GroupSpec.scalar(2, 2), 2, "signed")
    names = {p.mono: p.name for p in fam.params}

    def l0(a, b, c):
        pt = {names[(2, 0)]: a, names[(1, 1)]: b, names[(0, 2)]: c}
        return sum(1 for v in fam.evaluate_slots(pt) if v != 0)

    assert l0(0, 0, 0) == 3
    assert l0(1, -2, 1) == 4
    assert l0(1, 2, 1) == 5

    free = run_l0_sweep(fam, orthant=False)
    assert free.exhaustive
    assert {1, 2}.isdisjoint(free.achievable) and {1, 2}.issubset(free.certified_absent)
    assert {3, 4, 5, 8}.issubset(free.achievable)

    orthant = run_l0_sweep(fam, orthant=True)
    assert orthant.exhaustive
    assert 4 in orthant.certified_absent and 4 not in orthant.achievable
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(8, f"sparsity of the quadratic-family map: 3/4/5 witnessed, 1 and 2 gaps, "
              f"4 a gap on the orthant ({elapsed:.2f}s)")


# -- criterion 9: randomized property suites, at least 1000 cases each ------------

N_CASES = 1000


def _invariant_polys(g, max_degree=6, max_terms=4):
    monos = enumerate_invariant_monomials(g, max_degree)
    return st.dictionaries(
        st.sampled_from(monos), rationals(), min_size=0, max_size=max_terms
    ).map(lambda d: Polynomial(g.nvars, d))


@settings(max_examples=N_CASES, deadline=None)
@given(polynomials(2, max_terms=4), polynomials(2, max_terms=4))
def test_criterion_09a_disjoint_support_additivity(a, b):
    shared = set(a.terms) & set(b.terms)
    b = Polynomial(2, {m: c for m, c in b.terms.items() if m not in shared})
    assert (a + b).term_count() == a.term_count() + b.term_count()


@settings(max_examples=N_CASES, deadline=None)
@given(st.data())
def test_criterion_09b_tensor_preserves_constancy_and_invariance(data):
    g = data.draw(st.sampled_from([GroupSpec.scalar(2, 2), GroupSpec.weighted(5, 2)]))
    F = basic_poly_closed(g)
    seed = data.draw(_invariant_polys(g, max_degree=4, max_terms=2))
    F2 = tensor_step(F, seed)
    H = data.draw(polynomials(2, max_terms=3, max_exp=3))
    G = tensor_step(F2, H)
    assert is_one_on_hyperplane(G)
    H_inv = data.draw(_invariant_polys(g, max_degree=4, max_terms=2))
    assert is_invariant(g, tensor_step(F, H_inv))


@settings(max_examples=N_CASES, deadline=None)
@given(st.integers(1, 8), st.data())
def test_criterion_09c_product_term_lower_bound(m, data):
    F = (Polynomial.one(1) + Polynomial.variable(1, 0)) ** m
    exponents = data.draw(st.lists(st.integers(1, 9), max_size=4, unique=True))
    p_terms = {(0,): rat(1)}
    k = 0
    for e in exponents:
        c = data.draw(rationals(nonneg=True))
        if c > 0:
            p_terms[(e,)] = c
            k += 1
    assert (F * Polynomial(1, p_terms)).term_count() >= m + 1 + k


@settings(max_examples=N_CASES, deadline=None)
@given(st.integers(1, 6), st.data())
def test_criterion_09d_interior_scaling_equality(r, data):
    g = GroupSpec.weighted(2 * r + 1, 2)
    F = basic_poly_closed(g)
    lams = {}
    for j in range(1, r + 1):
        c = coefficient_c(r, j)
        pick = data.draw(st.integers(0, 2 * c - 1))
        if pick:
            lams[(2 * r + 1 - 2 * j, j)] = rat(pick, 2)
    H = Polynomial(2, lams)
    G = tensor_step(F, H)
    assert G.term_count() == F.term_count() + (F * H).term_count()


@settings(max_examples=N_CASES, deadline=None)
@given(st.data())
def test_criterion_09e_quotient_round_trip(data):
    g = data.draw(
        st.sampled_from([G7, GroupSpec.weighted(7, 2), GroupSpec.scalar(3, 2)])
    )
    H = data.draw(_invariant_polys(g, max_degree=6, max_terms=3))
    assert quotient_H(g, tensor_step(basic_poly_closed(g), H)) == H


@settings(max_examples=N_CASES, deadline=None)
@given(polynomials(2, max_terms=4, max_exp=3), polynomials(2, max_terms=4, max_exp=3))
def test_criterion_09f_restriction_homomorphism(f, g):
    assert (f * g).restrict_to_hyperplane() == (
        f.restrict_to_hyperplane() * g.restrict_to_hyperplane()
    )


@settings(max_examples=N_CASES, deadline=None)
@given(st.data())
def test_criterion_09g_telescoping_powers(data):
    g = data.draw(
        st.sampled_from(
            [GroupSpec.scalar(2, 2), GroupSpec.weighted(5, 2), GroupSpec.weighted(7, 2)]
        )
    )
    k = data.draw(st.sampled_from([3, 4]))
    F = basic_poly_closed(g)
    seed = data.draw(_invariant_polys(g, max_degree=4, max_terms=2))
    F = tensor_step(F, seed)  # any polynomial equal to 1 on the line works
    H = sum((F**i for i in range(1, k)), Polynomial.zero(2))
    assert tensor_step(F, H) == F**k


def test_criterion_09_reported():
    report(9, f"seven randomized property suites ran at {N_CASES} cases each")


def test_criterion_10_open_problem_honesty(degree13_sweep, capsys):
    start = time.monotonic()
    assert degree13_sweep.exhaustive
    assert {31, 35, 36}.issubset(degree13_sweep.proven_gaps)  # within degree 13 only

    code13 = cli_main(
        ["gaps", "--group", "gamma7", "--max-degree", "13", "--targets", "31,35,36"]
    )
    assert code13 == 0
    code17 = cli_main(
        ["gaps", "--group", "gamma7", "--max-degree", "17", "--targets", "31,35,36"]
    )
    assert code17 == 3  # default budget cannot settle the 39-parameter family
    capsys.readouterr()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(10, "31/35/36: no witness and exhaustive at degree 13; "
               f"inconclusive (exit 3) at degree 17 under the default budget ({elapsed:.2f}s)")
