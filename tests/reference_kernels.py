"""Reference kernels the fast paths in invsp are checked against.

These are the straightforward versions: a product that multiplies every
pair of terms in the backend's rationals, a division of G - F by F - 1 that
rescans the whole remainder for its leading term at each step, and an orbit
test that builds a full region's rotated images.  They share no code with
``Polynomial.__mul__``, ``transform.quotient_H`` or the sweep's incremental
orbit cut.
"""

from __future__ import annotations

from invsp.polycore import Polynomial

_SIGN_RANK = {0: 0, 1: 1, -1: 2}


def reference_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b by pairwise products of rational coefficients."""
    assert a.nvars == b.nvars
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono)
            s = ca * cb if s is None else s + ca * cb
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return Polynomial(a.nvars, out)


def reference_quotient(F: Polynomial, G: Polynomial) -> Polynomial:
    """The H with G = F - H + H*F, by graded-lex leading-term division.

    Raises ``ValueError`` naming the first stray term when the division
    leaves a remainder.
    """
    n = F.nvars
    divisor = F - Polynomial.one(n)
    lead_mono, lead_coeff = divisor.leading_term()
    remainder = {}
    current = G - F
    quotient = Polynomial.zero(n)
    while not current.is_zero():
        mono, coeff = current.leading_term()
        if all(a >= b for a, b in zip(mono, lead_mono)):
            shift = tuple(a - b for a, b in zip(mono, lead_mono))
            q_term = Polynomial.monomial(n, shift, coeff / lead_coeff)
            quotient = quotient + q_term
            current = current - reference_mul(q_term, divisor)
        else:
            remainder[mono] = coeff
            current = current - Polynomial.monomial(n, mono, coeff)
    if remainder:
        raise ValueError(
            "division left a nonzero remainder; the input is not of the form "
            f"F - H + H*F for this group (first stray term {next(iter(remainder))})"
        )
    return quotient


def reference_canonical(sigma, perm) -> bool:
    """True when sign region sigma is the lexicographic representative of its orbit.

    The orbit is sigma's images under the parameter rotation ``perm`` and
    its square, each built in full; signs rank 0 < 1 < -1.
    """
    code = tuple(_SIGN_RANK[s] for s in sigma)
    image = tuple(sigma)
    for _ in range(2):
        image = tuple(image[perm[i]] for i in range(len(perm)))
        if tuple(_SIGN_RANK[s] for s in image) < code:
            return False
    return True
