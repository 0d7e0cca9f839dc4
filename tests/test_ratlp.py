"""Exact rational simplex: unit cases, recorded vertices, a reference tableau
and a float cross-check."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import invsp.rat
from invsp import ratlp
from invsp.rat import rat

from conftest import rationals
from reference_kernels import reference_lp


def solve(c, rows, n, maximize=True):
    return ratlp.solve_lp([rat(x) for x in c], rows, n, maximize)


def row(coeffs, rel, rhs):
    return ([rat(x) for x in coeffs], rel, rat(rhs))


class TestBasics:
    def test_box_maximum(self):
        res = solve([1, 1], [row([1, 0], "<=", 2), row([0, 1], "<=", 3),
                             row([1, 0], ">=", 0), row([0, 1], ">=", 0)], 2)
        assert res.status == ratlp.OPTIMAL
        assert res.objective == 5
        assert res.x == [rat(2), rat(3)]

    def test_minimization(self):
        res = solve([1], [row([1], ">=", rat(7, 3))], 1, maximize=False)
        assert res.status == ratlp.OPTIMAL and res.objective == rat(7, 3)

    def test_infeasible(self):
        res = solve([1], [row([1], "<=", -1), row([1], ">=", 0)], 1)
        assert res.status == ratlp.INFEASIBLE

    def test_unbounded(self):
        res = solve([1], [row([1], ">=", 0)], 1)
        assert res.status == ratlp.UNBOUNDED

    def test_equality(self):
        res = solve(
            [0, 1],
            [row([1, 1], "==", 1), row([1, -1], "==", rat(1, 3))],
            2,
        )
        assert res.status == ratlp.OPTIMAL
        assert res.x == [rat(2, 3), rat(1, 3)]

    def test_free_variables_can_go_negative(self):
        res = solve([1], [row([1], "<=", -5)], 1)
        assert res.status == ratlp.OPTIMAL
        assert res.objective == -5 and res.x == [rat(-5)]

    def test_unbounded_below_direction(self):
        res = solve([-1], [row([1], "<=", -5)], 1)
        assert res.status == ratlp.UNBOUNDED

    def test_exact_fractions(self):
        res = solve(
            [1, 1],
            [
                row([3, 1], "<=", rat(1, 7)),
                row([1, 4], "<=", rat(2, 11)),
                row([1, 0], ">=", 0),
                row([0, 1], ">=", 0),
            ],
            2,
        )
        assert res.status == ratlp.OPTIMAL
        # vertex of the two lines
        x = rat(2, 77)
        y = rat(1, 7) - 3 * x
        assert 3 * res.x[0] + res.x[1] <= rat(1, 7)
        assert res.objective == x + (rat(2, 11) - x) / 4 or res.objective >= 0

    def test_degenerate_terminates(self):
        # classic cycling-prone instance; Bland's rule must terminate
        rows = [
            row([rat(1, 4), -60, rat(-1, 25), 9], "<=", 0),
            row([rat(1, 2), -90, rat(-1, 50), 3], "<=", 0),
            row([0, 0, 1, 0], "<=", 1),
            row([1, 0, 0, 0], ">=", 0),
            row([0, 1, 0, 0], ">=", 0),
            row([0, 0, 1, 0], ">=", 0),
            row([0, 0, 0, 1], ">=", 0),
        ]
        res = solve([rat(3, 4), -150, rat(1, 50), -6], rows, 4)
        assert res.status == ratlp.OPTIMAL
        assert res.objective == rat(1, 20)

    def test_results_are_backend_rationals(self):
        res = solve([rat(1, 2), 3], [row([1, 0], "<=", rat(5, 3)),
                                     row([0, 1], "<=", rat(-1, 4))], 2)
        assert res.status == ratlp.OPTIMAL
        assert isinstance(res.objective, invsp.rat.Rat)
        assert all(isinstance(v, invsp.rat.Rat) for v in res.x)
        assert res.x == [rat(5, 3), rat(-1, 4)] and res.objective == rat(1, 12)
        assert res.pivots > 0

    def test_rat_module_is_not_shadowed(self):
        assert invsp.rat.Rat is Fraction and invsp.rat.HAVE_GMPY2 is False

    @pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
    def test_float_input_is_rejected(self, where):
        c = [0.5, 1] if where == "objective" else [1, 1]
        coeffs = [1, 0.5] if where == "coefficient" else [1, "1/2"]
        rhs = 2.0 if where == "rhs" else 2
        with pytest.raises(TypeError):
            ratlp.solve_lp(c, [(coeffs, "<=", rhs)], 2)

    def test_float_row_is_rejected_by_add_rows(self):
        res = ratlp.solve_lp([1], [([1], "<=", 2)], 1)
        assert res.status == ratlp.OPTIMAL
        with pytest.raises(TypeError):
            ratlp.add_rows(res, [([0.5], "<=", 1)])

    def test_redundant_equalities(self, monkeypatch):
        """Drive-out pivots on a negative entry and drops all-zero rows."""
        seen = {"negative": 0, "removed": 0}
        drive_out = ratlp._drive_out_artificials

        def spy(tableau, basis, art_start):
            for r, b in zip(tableau, basis):
                structural = [a for a in r[:art_start] if a]
                if b >= art_start and structural and structural[0] < 0:
                    seen["negative"] += 1
            before = len(tableau)
            pivots = drive_out(tableau, basis, art_start)
            seen["removed"] += before - len(tableau)
            return pivots

        monkeypatch.setattr(ratlp, "_drive_out_artificials", spy)
        cap = row([1, 0], "<=", 3)
        res = solve([1, 0], [row([1, 1], "==", 1), row([2, 2], "==", 2),
                             row([-1, -1], "==", -1), cap], 2)
        assert res.status == ratlp.OPTIMAL
        assert res.objective == 3 and res.x == [rat(3), rat(-2)]
        res = solve([1, 0], [row([-1, -1], "==", 0), row([1, 1], "==", 0), cap], 2)
        assert res.status == ratlp.OPTIMAL
        assert res.objective == 3 and res.x == [rat(3), rat(-3)]
        assert seen["negative"] >= 1 and seen["removed"] >= 3

    def test_zero_rhs_ge_rows_need_no_phase_one(self, monkeypatch):
        """A >= row with rhs 0 starts with its slack basic, not an artificial."""
        calls = []
        pivot_loop = ratlp._pivot_loop

        def spy(tableau, basis, z_row):
            calls.append(len(z_row))
            return pivot_loop(tableau, basis, z_row)

        monkeypatch.setattr(ratlp, "_pivot_loop", spy)
        # maximize t subject to x - t >= 0, y - t >= 0, x + y <= 1
        res = solve([0, 0, 1], [row([1, 0, -1], ">=", 0), row([0, 1, -1], ">=", 0),
                                row([1, 1, 0], "<=", 1)], 3)
        assert res.status == ratlp.OPTIMAL and res.objective == rat(1, 2)
        assert calls == [2 * 3 + 3 + 1]  # phase 2 only: u, v, slacks, rhs


def _satisfies(coeffs, rel, rhs, x):
    lhs = sum((a * v for a, v in zip(coeffs, x)), rat(0))
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]


def test_recorded_vertices():
    """Sweep LPs with the vertex the reference tableau reaches, Bland's rule.

    Most were picked because another entering rule reaches another optimal
    vertex on them, so they pin the pivot sequence, not just the optimum;
    a few infeasible ones cover phase 1.  Each pinned vertex is checked to
    be feasible and to attain the pinned optimum.
    """
    path = Path(__file__).parent / "fixtures" / "lp_vertices.json"
    for case in json.loads(path.read_text()):
        rows = [([rat(a) for a in coeffs], rel, rat(rhs)) for coeffs, rel, rhs in case["rows"]]
        objective = [rat(c) for c in case["objective"]]
        res = ratlp.solve_lp(objective, rows, case["n_vars"], case["maximize"])
        expect = case["expect"]
        assert res.status == expect["status"]
        if expect["objective"] is None:
            assert res.objective is None and res.x is None
        else:
            x = [rat(v) for v in expect["x"]]
            assert all(_satisfies(*r, x) for r in rows)
            assert sum((c * v for c, v in zip(objective, x)), rat(0)) == rat(expect["objective"])
            assert res.objective == rat(expect["objective"])
            assert res.x == x


def _zero_rhs_lp(data, boxed):
    """A random LP whose >= rows mostly have rhs 0, as the sweep's rows do.

    Rows are drawn as ``>=`` three times in five, and such a row gets rhs 0
    three times in four; the other rows and rhs make some instances
    infeasible.  ``boxed`` adds ``-10 <= x_i <= 10`` so that none is
    unbounded.
    """
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    maximize = data.draw(st.booleans())
    c = [data.draw(st.integers(-3, 3)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [data.draw(rationals(3, 2)) for _ in range(n)]
        rel = data.draw(st.sampled_from([">=", ">=", ">=", "<=", "=="]))
        if rel == ">=" and data.draw(st.integers(0, 3)):
            rhs = rat(0)
        else:
            rhs = data.draw(rationals(4, 2))
        rows.append((coeffs, rel, rhs))
    if boxed:
        for i in range(n):
            unit = [rat(int(j == i)) for j in range(n)]
            rows.append((unit, "<=", rat(10)))
            rows.append((list(unit), ">=", rat(-10)))
    return c, rows, n, maximize


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matches_reference_tableau(data):
    """solve_lp follows the textbook tableau pivot for pivot."""
    c, rows, n, maximize = _zero_rhs_lp(data, data.draw(st.booleans()))
    res = solve(c, rows, n, maximize)
    assert (res.status, res.objective, res.x, res.pivots) == reference_lp(
        [rat(v) for v in c], rows, n, maximize
    )


def _added_rows(data, n, x):
    """One to three rows to add at the vertex x.

    A row is drawn at random, through x (degenerate: its slack starts at
    0), through x with rhs 0, or cutting x off by a wide margin, which
    often makes the LP infeasible; its relation is ``<=``, ``>=`` or ``==``.
    """
    rows = []
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = [data.draw(rationals(3, 2)) for _ in range(n)]
        rel = data.draw(st.sampled_from(["<=", ">=", "=="]))
        kind = data.draw(st.sampled_from(["random", "through", "zero", "cut"]))
        if kind == "zero":
            i = next((i for i, v in enumerate(x) if v != 0), None)
            if i is not None:  # make coeffs . x vanish
                coeffs[i] = 0
                coeffs[i] = -sum((a * v for a, v in zip(coeffs, x)), rat(0)) / x[i]
        at_x = sum((a * v for a, v in zip(coeffs, x)), rat(0))
        if kind == "random":
            rhs = data.draw(rationals(4, 2))
        elif kind == "cut":
            rel = ">="
            rhs = at_x + 1 + 20 * sum(abs(a) for a in coeffs)
        else:
            rhs = at_x
        rows.append((coeffs, rel, rhs))
    return rows


class TestAddRows:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_a_cold_solve(self, data):
        """Re-optimizing from the parent's tableau ends where a cold solve does."""
        c, rows, n, maximize = _zero_rhs_lp(data, data.draw(st.booleans()))
        parent = solve(c, rows, n, maximize)
        assume(parent.status == ratlp.OPTIMAL)
        added = _added_rows(data, n, parent.x)
        split = data.draw(st.integers(0, len(added)))  # two steps re-use a warm tableau
        res = ratlp.add_rows(parent, added[:split]) if split else parent
        res = ratlp.add_rows(res, added[split:])
        all_rows = rows + added
        cold = solve(c, all_rows, n, maximize)
        ref = reference_lp([rat(v) for v in c], all_rows, n, maximize)
        assert (res.status, res.objective) == (cold.status, cold.objective) == ref[:2]
        assert res.status in (ratlp.OPTIMAL, ratlp.INFEASIBLE)
        if res.status == ratlp.OPTIMAL:
            assert all(_satisfies(*r, res.x) for r in all_rows)
            assert res.objective == sum((rat(a) * v for a, v in zip(c, res.x)), rat(0))
        else:
            assert res.x is None and res.objective is None

    def test_satisfied_row_makes_no_pivot(self):
        rows = [row([1, 0], "<=", 2), row([0, 1], "<=", 3),
                row([1, 0], ">=", 0), row([0, 1], ">=", 0)]
        parent = solve([1, 1], rows, 2)
        res = ratlp.add_rows(parent, [row([1, 1], "<=", 6)])
        assert res.status == ratlp.OPTIMAL and res.pivots == 0
        assert res.x == parent.x == [rat(2), rat(3)] and res.objective == 5

    def test_parent_is_left_as_it_is(self):
        rows = [row([1, 0], "<=", 2), row([0, 1], "<=", 3),
                row([1, 0], ">=", 0), row([0, 1], ">=", 0)]
        parent = solve([1, 1], rows, 2)
        cut = ratlp.add_rows(parent, [row([1, 1], "==", 1)])
        assert cut.status == ratlp.OPTIMAL and cut.objective == 1 and cut.pivots > 0
        infeasible = ratlp.add_rows(parent, [row([1, 0], ">=", 3)])
        assert infeasible.status == ratlp.INFEASIBLE and infeasible.x is None
        assert ratlp.add_rows(infeasible, [row([0, 1], "<=", 9)]).status == ratlp.INFEASIBLE
        again = ratlp.add_rows(parent, [])
        assert (again.x, again.objective, again.pivots) == ([rat(2), rat(3)], 5, 0)

    def test_needs_an_optimal_parent(self):
        unbounded = solve([1], [row([1], ">=", 0)], 1)
        with pytest.raises(ValueError):
            ratlp.add_rows(unbounded, [row([1], "<=", 1)])


def _float_reference(c, rows, n, maximize):
    """Status and optimum of scipy.optimize.linprog on the same problem."""
    scipy = pytest.importorskip("scipy.optimize")
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in rows:
        fl = [float(x) for x in coeffs]
        if rel == "==":
            a_eq.append(fl)
            b_eq.append(float(rhs))
        elif rel == "<=":
            a_ub.append(fl)
            b_ub.append(float(rhs))
        else:
            a_ub.append([-x for x in fl])
            b_ub.append(-float(rhs))
    sign = -1 if maximize else 1  # linprog minimizes
    ref = scipy.linprog(
        [sign * float(x) for x in c],
        A_ub=a_ub or None, b_ub=b_ub or None,
        A_eq=a_eq or None, b_eq=b_eq or None,
        bounds=[(None, None)] * n,
    )
    return ref.status, (sign * ref.fun if ref.status == 0 else None)


class TestAgainstFloatSolver:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_bounded_lps(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 5))
        c = [data.draw(st.integers(-5, 5)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [data.draw(st.integers(-4, 4)) for _ in range(n)]
            rhs = data.draw(st.integers(-6, 6))
            rows.append(row(coeffs, "<=", rhs))
        # keep it bounded: box constraints
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            rows.append(row(unit, "<=", 10))
            rows.append(row(unit, ">=", -10))
        res = solve(c, rows, n)
        ref_status, ref_value = _float_reference(c, rows, n, True)
        if res.status == ratlp.INFEASIBLE:
            assert ref_status == 2
        else:
            assert res.status == ratlp.OPTIMAL
            assert ref_status == 0
            assert abs(float(res.objective) - ref_value) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_rational_lps(self, data):
        """Rational coefficients and rhs, == rows, and minimization."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 5))
        maximize = data.draw(st.booleans())
        c = [data.draw(rationals(4, 5)) for _ in range(n)]
        # equality rows pass through x0 half of the time, so that == rows
        # do not make almost every instance infeasible
        x0 = [data.draw(rationals(3, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [data.draw(rationals(4, 5)) for _ in range(n)]
            rel = data.draw(st.sampled_from(["<=", ">=", "=="]))
            if rel == "==" and data.draw(st.booleans()):
                rhs = sum((a * x for a, x in zip(coeffs, x0)), rat(0))
            else:
                rhs = data.draw(rationals(6, 4))
            rows.append((coeffs, rel, rhs))
        for i in range(n):
            unit = [rat(0)] * n
            unit[i] = rat(1)
            rows.append((unit, "<=", rat(10)))
            rows.append((list(unit), ">=", rat(-10)))
        res = solve(c, rows, n, maximize)
        ref_status, ref_value = _float_reference(c, rows, n, maximize)
        if res.status == ratlp.INFEASIBLE:
            assert ref_status == 2
            return
        assert res.status == ratlp.OPTIMAL and ref_status == 0
        assert all(_satisfies(*r, res.x) for r in rows)
        assert res.objective == sum((a * x for a, x in zip(c, res.x)), rat(0))
        assert abs(float(res.objective) - ref_value) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_zero_rhs_lps(self, data):
        """Mostly zero-rhs >= rows, as the sweep builds them."""
        c, rows, n, maximize = _zero_rhs_lp(data, boxed=True)
        res = solve(c, rows, n, maximize)
        ref_status, ref_value = _float_reference(c, rows, n, maximize)
        if res.status == ratlp.INFEASIBLE:
            assert ref_status == 2
            return
        assert res.status == ratlp.OPTIMAL and ref_status == 0
        assert all(_satisfies(*r, res.x) for r in rows)
        assert abs(float(res.objective) - ref_value) < 1e-6
