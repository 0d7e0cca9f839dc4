"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a finite map from exponent tuples to nonzero exact rational
coefficients, together with an explicit variable count.  It is stored
canonically as one dict of nonzero int numerators over one positive int
denominator coprime to them (1 for the zero polynomial), so every kernel
runs on Python ints and a ``Fraction`` is built only when a coefficient is
read.  Term iteration is graded-lexicographic (total degree first, then
exponent tuples with the first variable most significant), leading term
first.  Polynomials are immutable and safe to share across threads.

Supported variable counts are small (0 through 3 in practice): the intended
use is real polynomials in x, y, z that are constant on the hyperplane
x + y + z = 1 (or its lower-dimensional analogues).
"""

from __future__ import annotations

import json
from math import gcd, lcm, prod
from operator import add, index, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .rat import Rat, RatLike, rat

Monomial = Tuple[int, ...]

VAR_NAMES = ("x", "y", "z")


class DimensionMismatchError(ValueError):
    """Raised when operands disagree on the number of variables."""


def grlex_key(mono: Monomial) -> tuple:
    """Sort key for graded-lexicographic order with x > y > z."""
    return (sum(mono), mono)


def radix_place_values(ndigits: int, width: int) -> tuple[int, ...]:
    """Place values of a mixed-radix key, most significant digit first.

    A monomial whose exponents are all below ``width`` is keyed by the one
    int ``sum(e * p for e, p in zip(mono, places))``.  The key is linear in
    the exponents, so multiplying two monomials adds their keys, and
    :func:`radix_decode` turns a key back into its exponent tuple.
    """
    return tuple(width ** (ndigits - 1 - i) for i in range(ndigits))


def radix_decode(key: int, width: int, places: tuple[int, ...]) -> Monomial:
    """The digits of a key whose every digit is below ``width``."""
    return tuple([key // p % width for p in places])


def validate_mono(mono, nvars: int) -> Monomial:
    """An exponent sequence as a tuple of ``nvars`` nonnegative ints."""
    mono = tuple(map(index, mono))
    if len(mono) != nvars:
        raise DimensionMismatchError(
            f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
        )
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in monomial {mono}")
    return mono


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    The coefficient of ``m`` is ``_num[m] / _den`` (see the module docstring).
    ``nvars`` may be 0, in which case the polynomial is a constant (the
    empty exponent tuple is its only possible monomial).  The zero
    polynomial is the empty term map and has term count 0.
    """

    __slots__ = ("nvars", "_num", "_den", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Union[Mapping, Iterable, None] = None):
        nvars = index(nvars)
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Monomial, Rat] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                mono = validate_mono(mono, nvars)
                clean[mono] = clean.get(mono, 0) + rat(coeff)
        # the lcm of reduced denominators is coprime to the scaled numerators
        den = lcm(*(c.denominator for c in clean.values()))
        self.nvars, self._den, self._terms, self._hash = nvars, den, None, None
        self._num = {m: c.numerator * (den // c.denominator) for m, c in clean.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: RatLike) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: rat(value)})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        expts = [0] * nvars
        expts[index] = 1
        return cls(nvars, {tuple(expts): 1})

    @classmethod
    def monomial(cls, nvars: int, expts: Iterable[int], coeff: RatLike = 1) -> "Polynomial":
        return cls(nvars, {tuple(expts): rat(coeff)})

    @classmethod
    def _raw(cls, nvars: int, num: dict, den: int = 1) -> "Polynomial":
        """Internal constructor: nonzero int numerators over den > 0, reduced."""
        g = gcd(den, *num.values()) if den != 1 else 1
        obj = object.__new__(cls)
        obj.nvars, obj._den, obj._terms, obj._hash = nvars, den // g, None, None
        obj._num = num if g == 1 else {m: v // g for m, v in num.items()}
        return obj

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Rat]:
        """The coefficients as ``Fraction``, read-only, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType({m: Rat(v, self._den) for m, v in self._num.items()})
        return self._terms

    def int_terms(self) -> tuple[Mapping[Monomial, int], int]:
        """The read-only numerators and the denominator of :attr:`terms`."""
        return MappingProxyType(self._num), self._den

    def term_count(self) -> int:
        """Number of distinct monomials with nonzero coefficient."""
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(map(sum, self._num))

    def coefficient(self, mono: Iterable[int]) -> Rat:
        return Rat(self._num.get(validate_mono(mono, self.nvars), 0), self._den)

    def constant_term(self) -> Rat:
        return Rat(self._num.get((0,) * self.nvars, 0), self._den)

    def iter_terms(self) -> Iterator[tuple[Monomial, Rat]]:
        """Terms in descending graded-lex order (leading term first)."""
        for mono in sorted(self._num, key=grlex_key, reverse=True):
            yield mono, Rat(self._num[mono], self._den)

    def _term_texts(self) -> Iterator[tuple[Monomial, str]]:
        """:meth:`iter_terms` with each coefficient as ``str(Fraction)`` writes it."""
        den = self._den
        for mono in sorted(self._num, key=grlex_key, reverse=True):
            v = self._num[mono]
            g = gcd(v, den)
            yield mono, str(v // g) if g == den else f"{v // g}/{den // g}"

    def leading_term(self) -> tuple[Monomial, Rat]:
        """Largest term in graded-lex order; error on the zero polynomial."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._num, key=grlex_key)
        return mono, Rat(self._num[mono], self._den)

    # -- arithmetic --------------------------------------------------------

    def _check_same_dim(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def _plus(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, (int, str)) or type(other) is Rat:
            other = Polynomial.constant(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_dim(other)
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        out = {m: v * fa for m, v in self._num.items()}
        get = out.get
        for mono, v in other._num.items():
            s = get(mono, 0) + v * fb
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Polynomial._raw(self.nvars, out, da * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {m: -v for m, v in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product with a polynomial, or scaling by a rational.

        A one-term operand shifts the other's exponents and scales its
        numerators.  Otherwise each monomial is keyed by one int, its
        exponents as digits in base ``deg(self) + deg(other) + 2``, so a
        product of monomials is a sum of keys, and the numerator products
        are summed per key.
        """
        if isinstance(other, Polynomial):
            self._check_same_dim(other)
            n = self.nvars
            if not self._num or not other._num:
                return Polynomial.zero(n)
            for a, b in ((self, other), (other, self)):
                if len(b._num) == 1:
                    ((shift, c),) = b._num.items()
                    return a._scaled(c, b._den, shift)
            width = self.degree() + other.degree() + 2
            places = radix_place_values(n, width)
            b_keyed = [(sum(map(mul, mono, places)), v) for mono, v in other._num.items()]
            out: dict[int, int] = {}
            get = out.get
            for mono, va in self._num.items():
                ka = sum(map(mul, mono, places))
                for kb, vb in b_keyed:
                    key = ka + kb
                    out[key] = get(key, 0) + va * vb
            out = {radix_decode(key, width, places): v for key, v in out.items() if v}
            return Polynomial._raw(n, out, self._den * other._den)
        # scalar
        try:
            c = rat(other)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int, shift: Monomial) -> "Polynomial":
        """self times p/q * x^shift, p nonzero."""
        out = {tuple(map(add, mono, shift)): v * p for mono, v in self._num.items()}
        return Polynomial._raw(self.nvars, out, self._den * q)

    def scale(self, factor: RatLike) -> "Polynomial":
        c = rat(factor)
        if c == 0:
            return Polynomial.zero(self.nvars)
        return self._scaled(c.numerator, c.denominator, (0,) * self.nvars)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power requires a nonnegative integer")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structural operations ----------------------------------------------

    def restrict_to_hyperplane(self) -> "Polynomial":
        """Substitute the last variable by 1 minus the sum of the others.

        For one variable this substitutes x = 1; the result always has one
        variable fewer.  A polynomial is identically 1 on the hyperplane
        x + y (+ z) = 1 exactly when the result is the constant 1.

        The substitution is one Horner pass over the numerators packed into
        Python ints; the result keeps the denominator.  Group f by its last
        exponent as f = sum_e z^e P_e.  Each P_e is a list of rows, one per
        exponent of the middle variable (one row for two variables), and a
        row holds the first variable's numerators as ``bits``-wide balanced
        digits: the term ``v * x^a y^b z^e`` adds ``v << (bits * a)`` to row
        b of layer e.  From the top e down, acc = acc * (1 - x - y) + P_e, which is one
        shift and two subtractions per row.  The rows are decoded once, at
        the end, lowest digit first (a negative digit borrows from the one
        above), and a row's decode stops when nothing is left of it, so the
        constant restriction of a special polynomial reads one digit.  With
        one variable the result is the sum of the coefficients.

        A term ``x^a y^b z^c`` restricts to ``x^a y^b (1 - x - y)^c``, whose
        coefficients' absolute values sum to ``3^c`` (``2^c`` with two
        variables).  So every numerator of the result has absolute
        value at most ``B = sum |v| * 3^cmax``, cmax the top last exponent,
        and with ``bits = B.bit_length() + 1`` every digit lies strictly
        inside +-2^(bits - 1): the packing is injective and decodes exactly.
        """
        if self.nvars not in (1, 2, 3):
            raise DimensionMismatchError(
                f"hyperplane restriction supports 1-3 variables, got {self.nvars}"
            )
        k, num = self.nvars - 1, self._num
        if k == 0:
            total = sum(num.values())
            return Polynomial._raw(0, {(): total} if total else {}, self._den)
        cmax = max((mono[k] for mono in num), default=0)
        bits = (sum(map(abs, num.values())) * (k + 1) ** cmax).bit_length() + 1
        nrows = max((mono[1] for mono in num), default=0) + cmax + 1 if k == 2 else 1
        layers = [[0] * nrows for _ in range(cmax + 1)]
        for mono, v in num.items():
            layers[mono[k]][mono[1] if k == 2 else 0] += v << (bits * mono[0])
        acc = [0] * nrows
        for layer in reversed(layers):
            below = 0  # row j - 1 of acc before this step
            for j, row in enumerate(acc):
                acc[j] = layer[j] + row - (row << bits) - below
                below = row
        full = 1 << bits
        half, mask = full >> 1, full - 1
        out = {}
        for j, row in enumerate(acc):
            a = 0
            while row:
                digit = row & mask
                if digit >= half:
                    digit -= full
                if digit:
                    out[(a, j) if k == 2 else (a,)] = digit
                row = (row - digit) >> bits
                a += 1
        return Polynomial._raw(k, out, self._den)

    def evaluate(self, point: Iterable[RatLike]) -> Rat:
        values = [rat(v) for v in point]
        if len(values) != self.nvars:
            raise DimensionMismatchError("evaluation point has wrong arity")
        return sum((c * prod(map(pow, values, m)) for m, c in self._num.items()), rat(0)) / self._den

    def set_variable_zero(self, index: int) -> "Polynomial":
        """Drop all terms involving the given variable (set it to zero)."""
        return Polynomial._raw(
            self.nvars, {m: v for m, v in self._num.items() if m[index] == 0}, self._den
        )

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self._den, self._num) == (other.nvars, other._den, other._num)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nvars, self._den, frozenset(self._num.items())))
        return h

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"e": list(mono), "c": c} for mono, c in self._term_texts()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        if not isinstance(data, Mapping) or "nvars" not in data or "terms" not in data:
            raise ValueError("polynomial JSON must have 'nvars' and 'terms'")
        terms = {}
        for entry in data["terms"]:
            mono = tuple(map(index, entry["e"]))
            if mono in terms:
                raise ValueError(f"repeated monomial {list(mono)} in polynomial JSON")
            terms[mono] = rat(entry["c"])
        return cls(index(data["nvars"]), terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "Polynomial":
        return cls.from_json_dict(json.loads(text))

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for mono, c in self._term_texts():
            body = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(VAR_NAMES, mono) if e
            )
            if not body:
                parts.append(c)
            else:
                parts.append(body if c == "1" else f"-{body}" if c == "-1" else f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self!s})"


def term_count(f: Polynomial) -> int:
    """Number of distinct monomials of f (0 for the zero polynomial)."""
    return f.term_count()


def dominates(g: Polynomial, h: Polynomial) -> bool:
    """True when every coefficient of h - g is nonnegative."""
    if g.nvars != h.nvars:
        raise DimensionMismatchError("dominates requires matching variable counts")
    (a, da), (b, db) = g.int_terms(), h.int_terms()
    return all(b.get(m, 0) * da >= a.get(m, 0) * db for m in a.keys() | b.keys())


def is_one_on_hyperplane(f: Polynomial) -> bool:
    """True when f is identically 1 on the hyperplane x + y (+ z) = 1."""
    return f.restrict_to_hyperplane() == Polynomial.one(f.nvars - 1)
