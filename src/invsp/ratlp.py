"""Exact rational linear programming by a two-phase tableau simplex.

All arithmetic is exact, so feasibility answers are certificates rather
than numerical judgements: strict-positivity questions are posed as
"maximize the slack t" problems and the sign of the exact optimum decides
the open condition.  Bland's rule is used throughout, which guarantees
termination even on degenerate instances.

Variables are free (unbounded in both directions); encode bounds as
explicit constraint rows.  Internally each free variable is split into a
difference of two nonnegative ones.

The start basis is the slack basis wherever a slack can hold the row: a
row with a negative rhs, and a ``>=`` row with rhs 0, are negated first, so
every ``<=`` row starts with its slack basic at a nonnegative value.  The
strict-sign rows ``x_p - t >= 0`` and the bounds ``x_p >= 0`` the sweep
builds are of the second kind.  Only ``==`` rows and ``>=`` rows with a
positive rhs get an artificial, and an LP with neither runs no phase 1.

The tableau is fraction-free, in the spirit of Bareiss's integer-preserving
elimination: each row is a list of Python ints whose real row is the list
divided by the entry at the row's basic column, which is kept positive.
Pivoting on row r and column c rewrites every other row as
``p*row - row[c]*pivot_row`` with ``p = pivot_row[c] > 0`` and divides the
result by its gcd (a pivot row with a negative entry, which only driving
out an artificial meets, is negated first).  Ratios are compared by
cross-multiplication, and the z-row is held as a positive multiple of the
rational one, since Bland's rule only reads its signs.  Every quantity the
rules test is thus the exact rational one, so the basis sequence, and with
it the returned vertex, objective and status, are those the textbook
rational tableau reaches from the same start basis with the same column
order (u block, v block, slacks, artificials).  The tableau holds Python
ints; only the reported values are turned back into
:data:`~invsp.rat.Rat`.

An optimal result keeps its final tableau, and :func:`add_rows` re-optimizes
it with further rows by the dual simplex (Chvatal, *Linear Programming*,
1983, ch. 10) instead of solving the larger LP from scratch.  Each new row
is a ``<=`` row (a ``>=`` row negated, an ``==`` row split in two) with its
own slack, basic in it, and is reduced against the basic columns, so the
old basis stays optimal for the z-row and only the new slacks may be
negative.  Bland's rule again guards against cycling: the leaving row is
the negative-rhs row whose basic column has the least index, and the
entering column minimizes ``z_j / -a_rj`` over ``a_rj < 0``, ties to the
least index.  A row with no negative entry proves the LP infeasible; the
optimum can only fall, so the result is never unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .rat import Rat, rat, scaled_ints

LE = "<="
GE = ">="
EQ = "=="

Constraint = Tuple[Sequence, str, object]  # (coeffs, relation, rhs)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLIP = {LE: GE, GE: LE, EQ: EQ}


@dataclass
class _Tableau:
    """An optimal fraction-free tableau, kept for :func:`add_rows`.

    Columns are u, v (x = u - v, ``n_vars`` each), then the slacks, then the
    rhs; ``z_row`` is laid out the same.  ``objective`` is the objective as
    given, which the reported optimum is computed from.  Never mutated.
    """

    rows: List[List[int]]
    basis: List[int]
    z_row: List[int]
    n_vars: int
    objective: List[Rat]


@dataclass
class LPResult:
    status: str
    objective: Optional[Rat]
    x: Optional[List[Rat]]
    pivots: int = 0  # basis changes made, drive-out pivots included
    # the final tableau of an optimal result, which add_rows starts from
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)


def _scaled_row(coeffs, rel: str, rhs, n_vars: int) -> Tuple[List[int], int]:
    """A checked constraint as ints, ``[coeffs..., rhs]``, and its scale."""
    if len(coeffs) != n_vars:
        raise ValueError("constraint arity does not match variable count")
    if rel not in _FLIP:
        raise ValueError(f"unknown relation {rel!r}")
    return scaled_ints([*coeffs, rhs])


def _reduce(row: List[int]) -> List[int]:
    """Divide an integer row by the gcd of its entries (a positive factor)."""
    g = gcd(*row)
    if g > 1:
        return [a // g for a in row]
    return row


def solve_lp(
    objective: Sequence,
    constraints: Sequence[Constraint],
    n_vars: int,
    maximize: bool = True,
) -> LPResult:
    """Optimize objective . x subject to the given constraint rows.

    Returns an LPResult whose ``x`` is an optimal point over the original
    (free) variables when the status is "optimal".
    """
    c_orig = [rat(c) for c in objective]
    if len(c_orig) != n_vars:
        raise ValueError("objective length does not match variable count")

    rows: List[Tuple[List[int], int]] = []  # ([coeffs..., rhs], scale)
    rels: List[str] = []
    for coeffs, rel, rhs in constraints:
        row, scale = _scaled_row(coeffs, rel, rhs, n_vars)
        if row[-1] < 0 or (row[-1] == 0 and rel == GE):
            row = [-a for a in row]
            rel = _FLIP[rel]
        rows.append((row, scale))
        rels.append(rel)

    n_split = 2 * n_vars
    n_slack = sum(1 for r in rels if r != EQ)
    art_start = n_split + n_slack
    n_art = len(rels) - rels.count(LE)

    # Each tableau row is its scaled constraint row, so the unit slack and
    # artificial entries become the row's scale.
    tableau: List[List[int]] = []
    basis: List[int] = []
    slack_at = n_split
    art_at = art_start
    for (row, scale), rel in zip(rows, rels):
        coeffs = row[:-1]
        t_row = coeffs + [-a for a in coeffs] + [0] * (n_slack + n_art) + row[-1:]
        if rel != EQ:
            t_row[slack_at] = scale if rel == LE else -scale
            if rel == LE:
                basis.append(slack_at)
            slack_at += 1
        if rel != LE:
            t_row[art_at] = scale
            basis.append(art_at)
            art_at += 1
        tableau.append(_reduce(t_row))

    pivots = 0

    # ---- phase 1: maximize -(sum of artificials) ----
    if n_art:
        cost1 = [0] * art_start + [-1] * n_art
        z_row = _initial_z_row(tableau, basis, cost1)
        status, pivots = _pivot_loop(tableau, basis, z_row)
        if status == UNBOUNDED:  # cannot happen: objective bounded above by 0
            raise AssertionError("phase 1 reported unbounded")
        if z_row[-1] != 0:  # a positive multiple of -(sum of artificials)
            return LPResult(INFEASIBLE, None, None, pivots)
        pivots += _drive_out_artificials(tableau, basis, art_start)
        tableau[:] = [_reduce(row[:art_start] + row[-1:]) for row in tableau]

    # ---- phase 2 ----
    c_int, _ = scaled_ints(c_orig if maximize else [-c for c in c_orig])
    cost2 = c_int + [-c for c in c_int] + [0] * n_slack
    z_row = _initial_z_row(tableau, basis, cost2)
    status, phase2_pivots = _pivot_loop(tableau, basis, z_row)
    pivots += phase2_pivots
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, pivots)
    return _optimal(_Tableau(tableau, basis, z_row, n_vars, c_orig), pivots)


def add_rows(result: LPResult, constraints: Sequence[Constraint]) -> LPResult:
    """Re-optimize an optimal ``result`` with the constraint rows added.

    Starts from the result's final tableau and runs the dual simplex, so the
    returned result is that of the LP with all the rows, its objective and
    sense unchanged; ``pivots`` counts the dual pivots only.  The result
    passed in is left as it is.  An infeasible result stays infeasible.
    """
    if result.status == INFEASIBLE:
        return LPResult(INFEASIBLE, None, None)
    tab = result.tableau
    if tab is None:
        raise ValueError("add_rows needs a feasible bounded result of solve_lp or add_rows")
    n_vars = tab.n_vars
    new_rows: List[Tuple[List[int], int]] = []  # ([coeffs..., rhs] of a <= row, scale)
    for coeffs, rel, rhs in constraints:
        row, scale = _scaled_row(coeffs, rel, rhs, n_vars)
        if rel != GE:
            new_rows.append((row, scale))
        if rel != LE:
            new_rows.append(([-a for a in row], scale))

    width = len(tab.z_row) - 1  # the columns before the rhs
    pad = [0] * len(new_rows)
    tableau = [row[:-1] + pad + row[-1:] for row in tab.rows]
    basis = list(tab.basis)
    z_row = tab.z_row[:-1] + pad + tab.z_row[-1:]  # a new slack's z entry is 0
    for k, (row, scale) in enumerate(new_rows):
        coeffs = row[:-1]
        t_row = coeffs + [-a for a in coeffs] + [0] * (width - 2 * n_vars) + pad + row[-1:]
        t_row[width + k] = scale
        # zero the basic columns: the basic rows have 0 in each other's
        for b_row, b in zip(tableau, tab.basis):
            f = t_row[b]
            if f:
                p = b_row[b]
                t_row = [p * a - f * c for a, c in zip(t_row, b_row)]
        tableau.append(_reduce(t_row))
        basis.append(width + k)

    status, pivots = _dual_loop(tableau, basis, z_row)
    if status == INFEASIBLE:
        return LPResult(INFEASIBLE, None, None, pivots)
    return _optimal(_Tableau(tableau, basis, z_row, n_vars, tab.objective), pivots)


def _optimal(tab: _Tableau, pivots: int) -> LPResult:
    """The optimal result read off a final tableau, which it keeps."""
    n_vars = tab.n_vars
    zero = rat(0)
    values = [zero] * (2 * n_vars)  # the u and v columns; slacks are not read
    for row, b in zip(tab.rows, tab.basis):
        if b < 2 * n_vars:
            values[b] = Rat(row[-1], row[b])
    x = [values[i] - values[n_vars + i] for i in range(n_vars)]
    objective_value = sum((ci * xi for ci, xi in zip(tab.objective, x)), zero)
    return LPResult(OPTIMAL, objective_value, x, pivots, tab)


def _initial_z_row(tableau, basis, cost) -> List[int]:
    """A positive multiple of z[j] = sum_i cost[basis_i] * T[i][j] - cost[j].

    T[i] is tableau[i] / tableau[i][basis_i]; the rhs cell holds the value.
    """
    terms = [(cost[b], row, row[b]) for row, b in zip(tableau, basis) if cost[b]]
    scale = lcm(*(d for _, _, d in terms))
    z = [-scale * c for c in cost] + [0]
    for cb, row, d in terms:
        f = cb * (scale // d)
        z = [a + f * b for a, b in zip(z, row)]
    return _reduce(z)


def _pivot_loop(tableau, basis, z_row) -> Tuple[str, int]:
    """Bland-rule pivoting until optimal or unbounded; also the pivots made.

    The z-row is updated in place.
    """
    n_cols = len(z_row) - 1
    pivots = 0
    while True:
        enter = -1
        for j in range(n_cols):
            if z_row[j] < 0:  # basic columns hold an exact 0
                enter = j
                break
        if enter < 0:
            return OPTIMAL, pivots
        # leave on the least rhs/a over a > 0; ties to the least basic index
        leave_row = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave_row < 0:
                    leave_row, best_rhs, best_a = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                    leave_row, best_rhs, best_a = i, row[-1], a
        if leave_row < 0:
            return UNBOUNDED, pivots
        z_row[:] = _pivot(tableau, basis, leave_row, enter, z_row)
        pivots += 1


def _dual_loop(tableau, basis, z_row) -> Tuple[str, int]:
    """Dual simplex under Bland's rule until feasible or proven infeasible.

    The z-row must be dual feasible (no negative entry) and stays so; it is
    updated in place.  Returns the status and the pivots made.
    """
    n_cols = len(z_row) - 1
    pivots = 0
    while True:
        # leave on the negative-rhs row whose basic column has the least index
        leave_row = -1
        for i, row in enumerate(tableau):
            if row[-1] < 0 and (leave_row < 0 or basis[i] < basis[leave_row]):
                leave_row = i
        if leave_row < 0:
            return OPTIMAL, pivots
        # enter on the least z_j / -a over a < 0; ties to the least index
        row = tableau[leave_row]
        enter = -1
        for j in range(n_cols):
            a = row[j]
            if a < 0 and (enter < 0 or z_row[j] * best_a > best_z * a):
                enter, best_z, best_a = j, z_row[j], a
        if enter < 0:
            return INFEASIBLE, pivots
        tableau[leave_row] = [-a for a in row]
        z_row[:] = _pivot(tableau, basis, leave_row, enter, z_row)
        pivots += 1


def _pivot(tableau, basis, row_i, col_j, z_row=None) -> Optional[List[int]]:
    """Make col_j basic in row_i, whose entry there must be positive.

    Every other row with a nonzero entry in col_j, and the z-row, becomes
    ``p*row - row[col_j]*pivot_row`` over the pivot row's nonzero cells,
    reduced by its gcd; rows with a 0 there are left as they are.  The
    updated z-row is returned.
    """
    pivot_row = tableau[row_i]
    p = pivot_row[col_j]
    if p <= 0:
        raise AssertionError("pivot entry must be positive")
    nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]

    def eliminate(row):
        f = row[col_j]
        new = row[:] if p == 1 else [p * a for a in row]
        for j, b in nonzero:
            new[j] -= f * b
        return _reduce(new)

    for i, row in enumerate(tableau):
        if row[col_j] and i != row_i:
            tableau[i] = eliminate(row)
    basis[row_i] = col_j
    if z_row is None or not z_row[col_j]:
        return z_row
    return eliminate(z_row)


def _drive_out_artificials(tableau, basis, art_start) -> int:
    """Pivot zero-valued basic artificials onto structural columns.

    Returns the number of pivots made.
    """
    pivots = 0
    removable = []
    for i, row in enumerate(tableau):
        if basis[i] < art_start:
            continue
        pivot_col = -1
        for j in range(art_start):
            if row[j] != 0:
                pivot_col = j
                break
        if pivot_col >= 0:
            if row[pivot_col] < 0:  # the rhs is 0, so negating keeps it
                tableau[i] = [-a for a in row]
            _pivot(tableau, basis, i, pivot_col)
            pivots += 1
        else:
            removable.append(i)  # redundant row (all structural coeffs zero)
    for i in reversed(removable):
        del tableau[i]
        del basis[i]
    return pivots
