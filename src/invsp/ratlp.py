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
ints whatever the rational backend; only the reported values are turned
back into the backend's :data:`~invsp.rat.Rat`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .rat import Rat, rat

LE = "<="
GE = ">="
EQ = "=="

Constraint = Tuple[Sequence, str, object]  # (coeffs, relation, rhs)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLIP = {LE: GE, GE: LE, EQ: EQ}


@dataclass
class LPResult:
    status: str
    objective: Optional[Rat]
    x: Optional[List[Rat]]
    pivots: int = 0  # basis changes made, drive-out pivots included


def _num_den(value) -> Tuple[int, int]:
    """Numerator and positive denominator of an exact rational input."""
    try:
        return int(value.numerator), int(value.denominator)
    except AttributeError:  # "num/den" strings; rat() also rejects floats
        q = rat(value)
        return int(q.numerator), int(q.denominator)


def _integer_vector(values) -> Tuple[List[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    pairs = [_num_den(v) for v in values]
    scale = lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs], scale


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
        if len(coeffs) != n_vars:
            raise ValueError("constraint arity does not match variable count")
        if rel not in _FLIP:
            raise ValueError(f"unknown relation {rel!r}")
        row, scale = _integer_vector([*coeffs, rhs])
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
    c_int, _ = _integer_vector(c_orig if maximize else [-c for c in c_orig])
    cost2 = c_int + [-c for c in c_int] + [0] * n_slack
    z_row = _initial_z_row(tableau, basis, cost2)
    status, phase2_pivots = _pivot_loop(tableau, basis, z_row)
    pivots += phase2_pivots
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, pivots)

    zero = rat(0)
    values = [zero] * art_start  # no artificial is basic any more
    for row, b in zip(tableau, basis):
        values[b] = Rat(row[-1], row[b])
    x = [values[i] - values[n_vars + i] for i in range(n_vars)]
    objective_value = sum((ci * xi for ci, xi in zip(c_orig, x)), zero)
    return LPResult(OPTIMAL, objective_value, x, pivots)


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
