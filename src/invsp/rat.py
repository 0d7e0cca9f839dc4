"""Exact rational scalar type used throughout the package.

Every coefficient, LP entry, and witness coordinate is an exact rational;
no floating point is ever used in a normative computation.  gmpy2's mpq is
preferred for speed, with fractions.Fraction as a pure-Python fallback.
"""

from __future__ import annotations

from typing import Optional, Union

try:
    from gmpy2 import mpq as Rat

    HAVE_GMPY2 = True
except ImportError:  # gmpy2 is optional: pip install -e '.[gmpy2]'
    from fractions import Fraction as Rat

    HAVE_GMPY2 = False

RatLike = Union[int, str, "Rat"]


def rat(value: RatLike, den: Optional[int] = None) -> "Rat":
    """Coerce an int, "num/den" string, or rational to the canonical type."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; use exact rationals")
    if den is not None:
        return Rat(value, den)
    return Rat(value)


def rat_str(q: "Rat") -> str:
    """Serialize a rational as a decimal-free string, e.g. "14" or "-3/2"."""
    return str(q)
