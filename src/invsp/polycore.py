"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a finite map from exponent tuples to nonzero exact rational
coefficients, together with an explicit variable count.  The representation
is canonical: zero coefficients are never stored, and term iteration is
graded-lexicographic (total degree first, then exponent tuples with the
first variable most significant), leading term first.  All operations are
pure; polynomials are immutable after construction and safe to share across
threads or worker processes.

Supported variable counts are small (0 through 3 in practice): the intended
use is real polynomials in x, y, z that are constant on the hyperplane
x + y + z = 1 (or its lower-dimensional analogues).
"""

from __future__ import annotations

import json
from operator import add, index, mul
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .rat import Rat, RatLike, rat, rat_str, scaled_ints

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


def integer_terms(terms: Mapping[Monomial, Rat]) -> tuple[list[tuple[Monomial, int]], int]:
    """The terms with their coefficients as :func:`~invsp.rat.scaled_ints`, and the scale."""
    ints, scale = scaled_ints(terms.values())
    return list(zip(terms, ints)), scale


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

    ``nvars`` may be 0, in which case the polynomial is a constant (the
    empty exponent tuple is its only possible monomial).  The zero
    polynomial is the empty term map and has term count 0.
    """

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Union[Mapping, Iterable, None] = None):
        nvars = int(nvars)
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Monomial, Rat] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                mono = validate_mono(mono, nvars)
                c = rat(coeff)
                if mono in clean:
                    c = clean[mono] + c
                if c == 0:
                    clean.pop(mono, None)
                else:
                    clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

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

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Rat]:
        return self._terms

    def term_count(self) -> int:
        """Number of distinct monomials with nonzero coefficient."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(sum, self._terms))

    def coefficient(self, mono: Iterable[int]) -> Rat:
        return self._terms.get(validate_mono(mono, self.nvars), rat(0))

    def constant_term(self) -> Rat:
        return self._terms.get((0,) * self.nvars, rat(0))

    def iter_terms(self) -> Iterator[tuple[Monomial, Rat]]:
        """Terms in descending graded-lex order (leading term first)."""
        for mono in sorted(self._terms, key=grlex_key, reverse=True):
            yield mono, self._terms[mono]

    def leading_term(self) -> tuple[Monomial, Rat]:
        """Largest term in graded-lex order; error on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=grlex_key)
        return mono, self._terms[mono]

    # -- arithmetic --------------------------------------------------------

    def _check_same_dim(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_dim(other)
            out = dict(self._terms)
            for mono, c in other._terms.items():
                s = out.get(mono)
                s = c if s is None else s + c
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
            return Polynomial._raw(self.nvars, out)
        if isinstance(other, (int, str)) or type(other) is Rat:
            return self + Polynomial.constant(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + -other
        if isinstance(other, (int, str)) or type(other) is Rat:
            return self - Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product with a polynomial, or scaling by a rational.

        A one-term operand shifts the other's exponents and scales its
        coefficients.  Otherwise each operand is scaled once to Python ints
        (:func:`integer_terms`) and each monomial keyed by one int,
        its exponents as digits in base ``deg(self) + deg(other) + 2``, so a
        product of monomials is a sum of keys.  The int products are
        accumulated per key, and each output term is one rational
        ``v / (la * lb)``.
        """
        if isinstance(other, Polynomial):
            self._check_same_dim(other)
            n = self.nvars
            if not self._terms or not other._terms:
                return Polynomial.zero(n)
            if len(other._terms) == 1:
                return self._times_term(other)
            if len(self._terms) == 1:
                return other._times_term(self)
            width = self.degree() + other.degree() + 2
            places = radix_place_values(n, width)
            a, la = integer_terms(self._terms)
            b, lb = integer_terms(other._terms)
            b_keyed = [(sum(map(mul, mono, places)), v) for mono, v in b]
            out: dict[int, int] = {}
            get = out.get
            for mono, va in a:
                ka = sum(map(mul, mono, places))
                for kb, vb in b_keyed:
                    key = ka + kb
                    out[key] = get(key, 0) + va * vb
            den = la * lb
            return Polynomial._raw(
                n, {radix_decode(key, width, places): Rat(v, den) for key, v in out.items() if v}
            )
        # scalar
        try:
            c = rat(other)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def _times_term(self, term: "Polynomial") -> "Polynomial":
        """The product with a one-term polynomial, term by term."""
        ((shift, c),) = term._terms.items()
        return Polynomial._raw(
            self.nvars, {tuple(map(add, mono, shift)): v * c for mono, v in self._terms.items()}
        )

    def scale(self, factor: RatLike) -> "Polynomial":
        c = rat(factor)
        if c == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial._raw(self.nvars, {m: v * c for m, v in self._terms.items()})

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

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Internal constructor; terms must already be canonical."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "_terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    # -- structural operations ----------------------------------------------

    def restrict_to_hyperplane(self) -> "Polynomial":
        """Substitute the last variable by 1 minus the sum of the others.

        For one variable this substitutes x = 1; the result always has one
        variable fewer.  A polynomial is identically 1 on the hyperplane
        x + y (+ z) = 1 exactly when the result is the constant 1.

        The substitution is one Horner pass over packed Python ints.  The
        coefficients are scaled to ints by one L (:func:`integer_terms`), and
        the polynomial is grouped by its last exponent as f = sum_e z^e P_e.
        Each P_e is a list of rows, one per exponent of the middle variable
        (a single row for two variables), and a row holds the coefficients
        of the first variable as ``bits``-wide balanced digits: the term
        ``v * x^a y^b z^e`` adds ``v << (bits * a)`` to row b of layer e.
        From the top e down, acc = acc * (1 - x - y) + P_e, which is one
        shift and two subtractions per row.  The rows are decoded once, at
        the end, lowest digit first (a negative digit borrows from the one
        above), and a row's decode stops when nothing is left of it, so the
        constant restriction of a special polynomial reads one digit.  The
        result is acc / L.  With one variable it is the sum of the
        coefficients.

        A term ``x^a y^b z^c`` restricts to ``x^a y^b (1 - x - y)^c``, whose
        coefficients' absolute values sum to ``3^c`` (``2^c`` with two
        variables).  So every scaled coefficient of the result has absolute
        value at most ``B = sum |v| * 3^cmax``, cmax the top last exponent,
        and with ``bits = B.bit_length() + 1`` every digit lies strictly
        inside +-2^(bits - 1): the packing is injective and decodes exactly.
        """
        if self.nvars not in (1, 2, 3):
            raise DimensionMismatchError(
                f"hyperplane restriction supports 1-3 variables, got {self.nvars}"
            )
        k = self.nvars - 1
        terms, scale = integer_terms(self._terms)
        if k == 0:
            total = sum(v for _, v in terms)
            return Polynomial._raw(0, {(): Rat(total, scale)} if total else {})
        cmax = max((mono[k] for mono, _ in terms), default=0)
        bits = (sum(abs(v) for _, v in terms) * (k + 1) ** cmax).bit_length() + 1
        nrows = max((mono[1] for mono, _ in terms), default=0) + cmax + 1 if k == 2 else 1
        layers = [[0] * nrows for _ in range(cmax + 1)]
        for mono, v in terms:
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
                    out[(a, j) if k == 2 else (a,)] = Rat(digit, scale)
                row = (row - digit) >> bits
                a += 1
        return Polynomial._raw(k, out)

    def evaluate(self, point: Iterable[RatLike]) -> Rat:
        values = [rat(v) for v in point]
        if len(values) != self.nvars:
            raise DimensionMismatchError("evaluation point has wrong arity")
        total = rat(0)
        for mono, c in self._terms.items():
            term = c
            for v, e in zip(values, mono):
                if e:
                    term = term * v**e
            total += term
        return total

    def set_variable_zero(self, index: int) -> "Polynomial":
        """Drop all terms involving the given variable (set it to zero)."""
        return Polynomial._raw(
            self.nvars, {m: c for m, c in self._terms.items() if m[index] == 0}
        )

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"e": list(mono), "c": rat_str(c)} for mono, c in self.iter_terms()
            ],
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
        if not self._terms:
            return "0"
        parts = []
        for mono, c in self.iter_terms():
            factors = []
            for name, e in zip(VAR_NAMES, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                chunk = rat_str(c)
            elif c == 1:
                chunk = body
            elif c == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{rat_str(c)}*{body}"
            parts.append(chunk)
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
    for mono in set(g.terms) | set(h.terms):
        if h.terms.get(mono, rat(0)) - g.terms.get(mono, rat(0)) < 0:
            return False
    return True


def is_one_on_hyperplane(f: Polynomial) -> bool:
    """True when f is identically 1 on the hyperplane x + y (+ z) = 1."""
    return f.restrict_to_hyperplane() == Polynomial.one(f.nvars - 1)
