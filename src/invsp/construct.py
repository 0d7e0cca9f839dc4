"""Construction of the basic invariant polynomial for each group family.

Two independent routes are provided and cross-validate each other:

* closed forms: x^m and (x+y)^m for the scalar family, an explicit
  binomial-coefficient formula for the weighted family with q = 2, and a
  hard-coded 17-term polynomial for gamma7;
* the product formula: 1 minus the product over the group of
  (1 - eta^(w1 j) x - eta^(w2 j) y - ...), expanded exactly in Z[eta] for
  eta a primitive p-th root of unity (p prime), with a final check that
  every cyclotomic part cancels.

The basic polynomial of a group is the unique invariant polynomial of
minimal degree that equals 1 on the hyperplane, has zero constant term,
and (for these families) has nonnegative coefficients.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd, isqrt

from .groups import GAMMA7, SCALAR, GroupSpec
from .polycore import Polynomial


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


# -- weighted-family closed form -----------------------------------------------


def coefficient_c(r: int, j: int) -> int:
    """Middle coefficient of the weighted basic polynomial of degree 2r + 1.

    c(r, j) = (2r+1)/j * C(2r-j, j-1); the division is always exact and the
    result is a positive integer.
    """
    if not 1 <= j <= r:
        raise ValueError(f"j={j} out of range [1, {r}]")
    num = (2 * r + 1) * comb(2 * r - j, j - 1)
    if num % j:
        raise ArithmeticError(f"c({r},{j}) is not integral")
    return num // j


def mod_reduction_check(r: int) -> bool:
    """Whether every middle coefficient c(r, j) is divisible by 2r + 1.

    This holds exactly when 2r + 1 is prime (for r >= 1).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = 2 * r + 1
    return all(coefficient_c(r, j) % n == 0 for j in range(1, r + 1))


GAMMA7_BASIC_TERMS = {
    (7, 0, 0): 1,
    (0, 7, 0): 1,
    (0, 0, 7): 1,
    (3, 2, 0): 14,
    (2, 0, 3): 14,
    (0, 3, 2): 14,
    (1, 1, 1): 14,
    (5, 1, 0): 7,
    (1, 0, 5): 7,
    (0, 5, 1): 7,
    (1, 3, 0): 7,
    (3, 0, 1): 7,
    (0, 1, 3): 7,
    (1, 2, 4): 7,
    (2, 4, 1): 7,
    (4, 1, 2): 7,
    (2, 2, 2): 7,
}


@cache
def basic_poly_closed(g: GroupSpec) -> Polynomial:
    """Basic polynomial from its closed form.

    scalar: x^m (one variable) or (x+y)^m (two variables);
    weighted with q=1: (x+y)^p; weighted with q=2: binomial formula;
    gamma7: the fixed 17-term polynomial.  Other weighted exponents have no
    closed form here; use :func:`basic_poly_product`.  Built once per group.
    """
    if g.family == SCALAR:
        if g.nvars == 1:
            return Polynomial.monomial(1, (g.order,))
        return (Polynomial.variable(2, 0) + Polynomial.variable(2, 1)) ** g.order
    if g.family == GAMMA7:
        return Polynomial(3, GAMMA7_BASIC_TERMS)
    q = g.weights[1]
    p = g.order
    if q == 1:
        return (Polynomial.variable(2, 0) + Polynomial.variable(2, 1)) ** p
    if q == 2:
        r = (p - 1) // 2
        terms = {(p, 0): 1, (0, p): 1}
        terms.update(((p - 2 * j, j), coefficient_c(r, j)) for j in range(1, r + 1))
        return Polynomial._raw(2, terms)
    raise ValueError(
        f"no closed form for weighted family with q={q}; use basic_poly_product"
    )


def basic_poly_product(p: int, weights: tuple[int, ...], nvars: int) -> Polynomial:
    """Basic polynomial via the product over the group, for prime order p.

    Expands 1 - prod_{j=1..p} (1 - sum_i eta^(w_i j) x_i) with int
    coefficients in Z[eta] and checks that the result is rational.  The
    result is invariant, vanishes at the origin, and equals 1 on the
    hyperplane.
    """
    if not is_prime(p):
        raise ValueError(f"product construction requires prime order, got {p}")
    if len(weights) != nvars:
        raise ValueError("one weight per variable required")
    if any(w % p == 0 or gcd(w % p, p) != 1 for w in weights):
        raise ValueError("weights must be coprime to the order")

    # Each coefficient lies in Z[eta], held as p ints over 1, eta, ...,
    # eta^(p-1).  The only relation is 1 + eta + ... + eta^(p-1) = 0, so a
    # coefficient is zero when its entries are all equal and rational when
    # entries 1..p-1 are; subtracting the eta^(p-1) entry from all keeps
    # the representation unique.
    zero_mono = (0,) * nvars
    prod = {zero_mono: (1,) + (0,) * (p - 1)}
    for j in range(1, p + 1):
        new = dict(prod)
        for i, w in enumerate(weights):  # the factor's term -eta^(w j) x_i
            cut = p - (w * j) % p
            for mono, c in prod.items():
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                rotated = c[cut:] + c[:cut]  # times eta^(w j)
                old = new.get(key)
                if old is None:
                    new[key] = tuple(-a for a in rotated)
                else:
                    new[key] = tuple(a - b for a, b in zip(old, rotated))
        prod = {}
        for mono, c in new.items():
            top = c[-1]
            if any(a != top for a in c):
                prod[mono] = tuple(a - top for a in c)

    terms = {}
    for mono, c in prod.items():
        if any(c[1:]):
            raise ArithmeticError(
                f"nonrational coefficient at {mono}: {c}; "
                "internal consistency failure in the product construction"
            )
        value = -c[0]
        if mono == zero_mono:
            value += 1
        if value != 0:
            terms[mono] = value
    result = Polynomial._raw(nvars, terms)
    if result.constant_term() != 0:
        raise ArithmeticError("product construction produced a constant term")
    return result


def basic_poly(g: GroupSpec, method: str = "closed") -> Polynomial:
    """Basic polynomial for a group; method is "closed" or "product"."""
    if method == "closed":
        return basic_poly_closed(g)
    if method == "product":
        return basic_poly_product(g.order, g.weights, g.nvars)
    raise ValueError(f"unknown method {method!r}")
