"""Exact rational scalar type used throughout the package.

Every coefficient, LP entry, and witness coordinate is an exact
:class:`fractions.Fraction`; no floating point is ever used in a normative
computation.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import lcm
from typing import Iterable, Optional, Union

# Fraction is the only backend; perfbench/run.py stamps its reports from this.
HAVE_GMPY2 = False

RatLike = Union[int, str, Rat]


def rat(value: RatLike, den: Optional[int] = None) -> Rat:
    """Coerce an int, "num/den" string, or rational to the canonical type."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; use exact rationals")
    if den is not None:
        return Rat(value, den)
    return Rat(value)


def rat_str(q: Rat) -> str:
    """Serialize a rational as a decimal-free string, e.g. "14" or "-3/2"."""
    return str(q)


def scaled_ints(values: Iterable[RatLike]) -> tuple[list[int], int]:
    """The values times L, the lcm of their denominators, and L (1 if empty).

    How the LP and the sweep turn rationals into Python ints.  A value that
    is not an int or a Rat goes through :func:`rat`, so a float raises
    ``TypeError``.
    """
    ratios = [(v if isinstance(v, (int, Rat)) else rat(v)).as_integer_ratio() for v in values]
    scale = lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios], scale
