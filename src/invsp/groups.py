"""Cyclic group families and invariance of monomials by exponent congruence.

Three families of fixed-point-free cyclic representations are supported:

* ``scalar``   -- order m >= 2 acting by the same root of unity on every
  coordinate, in source dimension 1 or 2; a monomial is invariant exactly
  when its total degree is divisible by m.
* ``weighted`` -- odd order p >= 3 acting with weights (1, q), gcd(p, q) = 1,
  in source dimension 2; invariance means a + q*b = 0 (mod p).
* ``gamma7``   -- order 7 acting with weights (1, 2, 4) in source
  dimension 3; invariance means a + 2b + 4c = 0 (mod 7).

Invariance is always decided by the integer congruence, never by numeric
evaluation at a root of unity, so every test is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, mul
from typing import Iterable, List, Mapping

from .polycore import DimensionMismatchError, Monomial, Polynomial, grlex_key

SCALAR = "scalar"
WEIGHTED = "weighted"
GAMMA7 = "gamma7"


@dataclass(frozen=True)
class GroupSpec:
    """One of the three supported cyclic group families.

    ``order`` is the group order (m, p, or 7), ``weights`` the exponent
    weights of the generator on each coordinate, and ``nvars`` the source
    dimension.
    """

    family: str
    order: int
    weights: tuple[int, ...]
    nvars: int

    def __post_init__(self):
        if self.family == SCALAR:
            if self.order < 2:
                raise ValueError("scalar family requires order m >= 2")
            if self.nvars not in (1, 2):
                raise ValueError("scalar family supports source dimension 1 or 2")
            if self.weights != (1,) * self.nvars:
                raise ValueError("scalar family has unit weights")
        elif self.family == WEIGHTED:
            p, q = self.order, self.weights[1]
            if p < 3 or p % 2 == 0:
                raise ValueError("weighted family requires odd order p >= 3")
            if gcd(p, q) != 1:
                raise ValueError("weighted family requires gcd(p, q) = 1")
            if self.nvars != 2 or self.weights[0] != 1:
                raise ValueError("weighted family acts on 2 variables with weights (1, q)")
        elif self.family == GAMMA7:
            if (self.order, self.weights, self.nvars) != (7, (1, 2, 4), 3):
                raise ValueError("gamma7 is fixed: order 7, weights (1, 2, 4), 3 variables")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def scalar(m: int, n: int) -> "GroupSpec":
        return GroupSpec(SCALAR, m, (1,) * n, n)

    @staticmethod
    def weighted(p: int, q: int) -> "GroupSpec":
        return GroupSpec(WEIGHTED, p, (1, q % p), 2)

    @staticmethod
    def gamma7() -> "GroupSpec":
        return GroupSpec(GAMMA7, 7, (1, 2, 4), 3)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.family == SCALAR:
            return {"family": SCALAR, "m": self.order, "n": self.nvars}
        if self.family == WEIGHTED:
            return {"family": WEIGHTED, "p": self.order, "q": self.weights[1], "n": 2}
        return {"family": GAMMA7, "n": 3}

    @staticmethod
    def from_json_dict(data: Mapping) -> "GroupSpec":
        family = data.get("family")
        if family == SCALAR:
            return GroupSpec.scalar(index(data["m"]), index(data.get("n", 1)))
        if family == WEIGHTED:
            return GroupSpec.weighted(index(data["p"]), index(data["q"]))
        if family == GAMMA7:
            return GroupSpec.gamma7()
        raise ValueError(f"unknown group family {family!r}")

    def spec_string(self) -> str:
        if self.family == SCALAR:
            return f"scalar:{self.order}:{self.nvars}"
        if self.family == WEIGHTED:
            return f"weighted:{self.order}:{self.weights[1]}"
        return "gamma7"

    def __str__(self):
        return self.spec_string()


def parse_group(text: str) -> GroupSpec:
    """Parse the CLI mini-language: scalar:<m>:<n>, weighted:<p>:<q>, gamma7."""
    parts = text.strip().split(":")
    if parts[0] == GAMMA7 and len(parts) == 1:
        return GroupSpec.gamma7()
    if parts[0] == SCALAR and len(parts) == 3:
        return GroupSpec.scalar(int(parts[1]), int(parts[2]))
    if parts[0] == WEIGHTED and len(parts) == 3:
        return GroupSpec.weighted(int(parts[1]), int(parts[2]))
    raise ValueError(
        f"bad group spec {text!r}; expected scalar:<m>:<n>, weighted:<p>:<q>, or gamma7"
    )


# -- invariance ---------------------------------------------------------------


def weight_of(g: GroupSpec, mono: Monomial) -> int:
    """Weighted exponent sum of the monomial modulo the group order."""
    if len(mono) != g.nvars:
        raise DimensionMismatchError(
            f"monomial {mono} has {len(mono)} exponents, group acts on {g.nvars}"
        )
    return sum(w * e for w, e in zip(g.weights, mono)) % g.order


def is_invariant_monomial(g: GroupSpec, mono: Monomial) -> bool:
    """Invariance of a single monomial under the group action."""
    return weight_of(g, mono) == 0


def is_invariant(g: GroupSpec, f: Polynomial) -> bool:
    """A polynomial is invariant iff each of its monomials is invariant."""
    if f.nvars != g.nvars:
        raise DimensionMismatchError(
            f"polynomial has {f.nvars} variables, group acts on {g.nvars}"
        )
    weights, order = g.weights, g.order
    return all(sum(map(mul, weights, mono)) % order == 0 for mono in f.int_terms()[0])


def enumerate_invariant_monomials(g: GroupSpec, max_degree: int) -> List[Monomial]:
    """All nonconstant invariant monomials of total degree <= max_degree.

    Returned in ascending graded-lex order (degree first, then exponent
    tuple), without duplicates.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    found = []
    for d in range(1, max_degree + 1):
        for mono in _monomials_of_degree(g.nvars, d):
            if is_invariant_monomial(g, mono):
                found.append(mono)
    return sorted(found, key=grlex_key)


def _monomials_of_degree(nvars: int, degree: int) -> Iterable[Monomial]:
    if nvars == 1:
        yield (degree,)
        return
    if nvars == 2:
        for a in range(degree + 1):
            yield (a, degree - a)
        return
    for a in range(degree + 1):
        for b in range(degree - a + 1):
            yield (a, b, degree - a - b)


GAMMA7_GENERATORS: tuple[Monomial, ...] = (
    (7, 0, 0),
    (0, 7, 0),
    (0, 0, 7),
    (5, 1, 0),
    (3, 2, 0),
    (1, 3, 0),
    (3, 0, 1),
    (0, 5, 1),
    (0, 3, 2),
    (0, 1, 3),
    (1, 1, 1),
)


def algebra_generators(g: GroupSpec) -> List[Monomial]:
    """Monomial generators of the invariant algebra (besides the constant 1).

    Only the cases with a known generator list are supported: the scalar
    family (all monomials of degree exactly m), the weighted family with
    q in {1, 2}, and gamma7 (eleven fixed generators).
    """
    if g.family == GAMMA7:
        return list(GAMMA7_GENERATORS)
    if g.family == SCALAR:
        return sorted(_monomials_of_degree(g.nvars, g.order), key=grlex_key)
    q = g.weights[1]
    p = g.order
    if q == 1:
        return sorted(_monomials_of_degree(2, p), key=grlex_key)
    if q == 2:
        r = (p - 1) // 2
        gens = [(p, 0), (0, p)]
        gens.extend((p - 2 * j, j) for j in range(1, r + 1))
        return sorted(gens, key=grlex_key)
    raise ValueError(f"no generator list available for weighted family with q={q}")


def rotate_xyz(mono: Monomial) -> Monomial:
    """Image of a 3-variable monomial under x -> y -> z -> x."""
    if len(mono) != 3:
        raise DimensionMismatchError("rotation acts on 3-variable monomials")
    return (mono[2], mono[0], mono[1])
