"""Construction of the basic invariant polynomial for each group family.

Two independent routes are provided and cross-validate each other:

* closed forms: x^m and (x+y)^m for the scalar family, an explicit
  binomial-coefficient formula for the weighted family with q = 2, and a
  hard-coded 17-term polynomial for gamma7;
* the product formula: 1 minus the product over the group of
  (1 - eta^(w1 j) x - eta^(w2 j) y - ...), expanded exactly in the ring of
  integers extended by a primitive p-th root of unity (p prime), with a
  final check that every cyclotomic part cancels.

The basic polynomial of a group is the unique invariant polynomial of
minimal degree that equals 1 on the hyperplane, has zero constant term,
and (for these families) has nonnegative coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Tuple

from .groups import GAMMA7, SCALAR, GroupSpec
from .polycore import Polynomial
from .rat import Rat, rat


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


# -- cyclotomic integers -------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicElement:
    """Element of Q(eta) for eta a primitive p-th root of unity, p prime.

    Represented on the power basis 1, eta, ..., eta^(p-2) with the reduction
    eta^(p-1) = -(1 + eta + ... + eta^(p-2)) applied eagerly, so the
    representation is unique and an element is rational exactly when all
    coefficients beyond the constant vanish.
    """

    p: int
    coeffs: Tuple[Rat, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("cyclotomic order must be prime")
        if len(self.coeffs) != self.p - 1:
            raise ValueError("coefficient vector must have length p - 1")

    @staticmethod
    def zero(p: int) -> "CyclotomicElement":
        return CyclotomicElement(p, (rat(0),) * (p - 1))

    @staticmethod
    def from_rational(p: int, value) -> "CyclotomicElement":
        coeffs = [rat(0)] * (p - 1)
        coeffs[0] = rat(value)
        return CyclotomicElement(p, tuple(coeffs))

    @staticmethod
    def eta_power(p: int, k: int) -> "CyclotomicElement":
        """eta^k reduced to the power basis."""
        k %= p
        coeffs = [rat(0)] * (p - 1)
        if k < p - 1:
            coeffs[k] = rat(1)
        else:
            # eta^(p-1) = -(1 + eta + ... + eta^(p-2))
            coeffs = [rat(-1)] * (p - 1)
        return CyclotomicElement(p, tuple(coeffs))

    def _check(self, other: "CyclotomicElement") -> None:
        if self.p != other.p:
            raise ValueError("cyclotomic orders differ")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.p, tuple(-a for a in self.coeffs))

    def scale(self, factor) -> "CyclotomicElement":
        c = rat(factor)
        return CyclotomicElement(self.p, tuple(a * c for a in self.coeffs))

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        p = self.p
        n = p - 1
        raw = [rat(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                raw[i + j] += a * b
        # reduce degrees >= p - 1 downward via eta^(p-1) = -(1 + ... + eta^(p-2))
        for k in range(2 * n - 2, n - 1, -1):
            c = raw[k]
            if c == 0:
                continue
            raw[k] = rat(0)
            for i in range(n):
                raw[k - p + 1 + i] -= c
        return CyclotomicElement(p, tuple(raw[:n]))

    def times_eta_power(self, k: int, sign: int = 1) -> "CyclotomicElement":
        """self * (sign * eta^k), for sign +1 or -1, without a general product.

        On the basis 1, eta, ..., eta^(p-1) multiplying by eta^k rotates the
        coefficients by k places; the reduction of eta^(p-1) then subtracts
        its coefficient from every other.
        """
        p = self.p
        k %= p
        full = self.coeffs + (rat(0),)
        rotated = full[p - k:] + full[:p - k]  # rotated[(i + k) % p] = full[i]
        top = rotated[-1]
        if sign < 0:
            return CyclotomicElement(p, tuple(top - a for a in rotated[:-1]))
        return CyclotomicElement(p, tuple(a - top for a in rotated[:-1]))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Rat:
        if not self.is_rational():
            raise ValueError(f"element {self.coeffs} is not rational")
        return self.coeffs[0]


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


def basic_poly_closed(g: GroupSpec) -> Polynomial:
    """Basic polynomial from its closed form.

    scalar: x^m (one variable) or (x+y)^m (two variables);
    weighted with q=1: (x+y)^p; weighted with q=2: binomial formula;
    gamma7: the fixed 17-term polynomial.  Other weighted exponents have no
    closed form here; use :func:`basic_poly_product`.
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
        terms = {(p, 0): rat(1), (0, p): rat(1)}
        for j in range(1, r + 1):
            terms[(p - 2 * j, j)] = rat(coefficient_c(r, j))
        return Polynomial(2, terms)
    raise ValueError(
        f"no closed form for weighted family with q={q}; use basic_poly_product"
    )


def basic_poly_product(p: int, weights: tuple[int, ...], nvars: int) -> Polynomial:
    """Basic polynomial via the product over the group, for prime order p.

    Expands 1 - prod_{j=1..p} (1 - sum_i eta^(w_i j) x_i) with exact
    cyclotomic coefficients and checks that the result is rational.  The
    result is invariant, vanishes at the origin, and equals 1 on the
    hyperplane.
    """
    if not is_prime(p):
        raise ValueError(f"product construction requires prime order, got {p}")
    if len(weights) != nvars:
        raise ValueError("one weight per variable required")
    if any(w % p == 0 or gcd(w % p, p) != 1 for w in weights):
        raise ValueError("weights must be coprime to the order")

    zero_mono = (0,) * nvars
    prod: dict[tuple[int, ...], CyclotomicElement] = {
        zero_mono: CyclotomicElement.from_rational(p, 1)
    }
    for j in range(1, p + 1):
        new: dict[tuple[int, ...], CyclotomicElement] = dict(prod)
        for i, w in enumerate(weights):  # the factor's term -eta^(w j) x_i
            for mono, ce in prod.items():
                shifted = list(mono)
                shifted[i] += 1
                key = tuple(shifted)
                add = ce.times_eta_power(w * j, -1)
                if key in new:
                    new[key] = new[key] + add
                else:
                    new[key] = add
        prod = {m: c for m, c in new.items() if not c.is_zero()}

    terms = {}
    for mono, ce in prod.items():
        if not ce.is_rational():
            raise ArithmeticError(
                f"nonrational coefficient at {mono}: {ce.coeffs}; "
                "internal consistency failure in the product construction"
            )
        value = -ce.rational_value()
        if mono == zero_mono:
            value += 1
        if value != 0:
            terms[mono] = value
    result = Polynomial(nvars, terms)
    if result.constant_term() != 0:
        raise ArithmeticError("product construction produced a constant term")
    return result


def basic_poly(g: GroupSpec, method: str = "closed") -> Polynomial:
    """Basic polynomial for a group; method is "closed" or "product"."""
    if method == "closed":
        return basic_poly_closed(g)
    if method == "product":
        if g.family == SCALAR and g.nvars == 1:
            if not is_prime(g.order):
                raise ValueError("product construction requires prime order")
            return basic_poly_product(g.order, (1,), 1)
        return basic_poly_product(g.order, g.weights, g.nvars)
    raise ValueError(f"unknown method {method!r}")
