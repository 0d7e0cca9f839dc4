"""The tensor operation G = F - H + H*F and specialness validation.

If F equals 1 on the hyperplane then so does G = F + H*(F - 1) for any H,
and invariance of F and H passes to G.  Conversely every invariant
polynomial G that equals 1 on the hyperplane differs from the basic
polynomial F by a multiple of F - 1, so H can be recovered by exact
division.  Degree estimates bound how large the degree of a polynomial
with a given term count can be; they are used to turn bounded searches
into unconditional statements.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

from .construct import basic_poly_closed
from .groups import GroupSpec, is_invariant
from .polycore import (
    DimensionMismatchError,
    Polynomial,
    is_one_on_hyperplane,
    radix_decode,
    radix_place_values,
)


@dataclass(frozen=True)
class SpecialReport:
    """Validation summary of a candidate special polynomial."""

    invariant: bool
    constant_on_hyperplane: bool
    nonneg: bool
    zero_at_origin: bool
    n_terms: int
    degree: int

    @property
    def is_special(self) -> bool:
        return (
            self.invariant
            and self.constant_on_hyperplane
            and self.nonneg
            and self.zero_at_origin
            and self.n_terms > 0
        )

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["is_special"] = self.is_special
        return data


def tensor_step(F: Polynomial, H: Polynomial) -> Polynomial:
    """Return F - H + H*F exactly."""
    if F.nvars != H.nvars:
        raise DimensionMismatchError("tensor operands must share variables")
    return F - H + H * F


def validate_special(g: GroupSpec, f: Polynomial) -> SpecialReport:
    """Check the defining properties of a special polynomial for the group."""
    if f.nvars != g.nvars:
        raise DimensionMismatchError(
            f"polynomial has {f.nvars} variables, group acts on {g.nvars}"
        )
    return SpecialReport(
        invariant=is_invariant(g, f),
        **_group_free_checks(f),
        n_terms=f.term_count(),
        degree=f.degree(),
    )


def _group_free_checks(f: Polynomial) -> dict[str, bool]:
    """The report fields of the checks that need no group."""
    return {
        "constant_on_hyperplane": is_one_on_hyperplane(f),
        "nonneg": all(v > 0 for v in f.int_terms()[0].values()),
        "zero_at_origin": f.constant_term() == 0,
    }


def group_free_failures(f: Polynomial) -> list[str]:
    """The checks of :func:`validate_special` that need no group and that f fails.

    Named by their :class:`SpecialReport` field: ``constant_on_hyperplane``,
    ``nonneg`` and ``zero_at_origin``.
    """
    return [name for name, ok in _group_free_checks(f).items() if not ok]


def degree_bound(n: int, N: int) -> int:
    """Largest possible degree of a good polynomial with N terms.

    In two variables the sharp estimate is d <= 2N - 3; in three variables
    N >= 2d + 1, i.e. d <= (N - 1) / 2.  Source dimension 1 carries no
    constraint and is rejected.
    """
    if N < 1:
        raise ValueError("term count must be positive")
    if n == 2:
        return 2 * N - 3
    if n == 3:
        return (N - 1) // 2
    raise ValueError(f"no degree estimate for source dimension {n}")


def quotient_H(g: GroupSpec, G: Polynomial) -> Polynomial:
    """Recover the unique H with G = F - H + H*F, F the basic polynomial.

    Computed by exact division of G - F by F - 1 with graded-lex leading
    term reduction, in place on one map of the numerators of G - F.  Each
    monomial is keyed by one int whose digits in base ``degree + 2`` are its
    total degree and then its exponents, so the int order is the graded-lex
    order and a product of monomials is a sum of keys.  A max-heap of the
    live keys yields each leading term, and a step touches only the terms of
    F - 1: those of F, which is nonconstant and so leads F - 1, and the -1.
    A nonzero remainder means G is not in the family generated by F and
    raises ``ValueError`` naming the first (largest) stray term.
    """
    F = basic_poly_closed(g)
    if G.nvars != F.nvars:
        raise DimensionMismatchError("polynomial dimension does not match group")
    n = F.nvars
    current = G - F
    width = max(current.degree(), F.degree()) + 2
    places = radix_place_values(n + 1, width)

    def key(mono):
        return sum(map(mul, (sum(mono), *mono), places))

    terms, scale = current.int_terms()  # current = rem / scale
    rem = {key(mono): v for mono, v in terms.items()}
    div_terms, div_scale = F.int_terms()
    lead_mono = F.leading_term()[0]
    lead_key = key(lead_mono)
    lead = div_terms[lead_mono]
    rest = [(key(mono) - lead_key, v) for mono, v in div_terms.items() if mono != lead_mono]
    rest.append((-lead_key, -div_scale))  # the -1 of F - 1, at key 0
    heap = [-k for k in rem]
    heapify(heap)
    quotient = {}  # H = quotient / scale
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:  # cancelled after it was pushed
            continue
        mono = radix_decode(k, width, places)[1:]
        if any(a < b for a, b in zip(mono, lead_mono)):
            raise ValueError(
                "division left a nonzero remainder; the input is not of the form "
                f"F - H + H*F for this group (first stray term {mono})"
            )
        if c % lead:  # scale up so that lead divides c
            f = abs(lead) // gcd(c, lead)
            for part in (rem, quotient):
                for t in part:
                    part[t] *= f
            c *= f
            scale *= f
        q = c // lead
        quotient[radix_decode(k - lead_key, width, places)[1:]] = q * div_scale
        for dk, dv in rest:
            t = k + dk
            v = rem.get(t, 0) - q * dv
            if v:
                if t not in rem:
                    heappush(heap, -t)
                rem[t] = v
            else:
                rem.pop(t, None)
    return Polynomial._raw(n, quotient, scale)
