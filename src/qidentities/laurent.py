"""Exact Laurent-polynomial arithmetic in the variable x = q^(1/2).

Exponents are integers counting half-steps of q, so the term x^3 denotes
q^(3/2).  Coefficients are Python ints, hence arbitrary precision.  All
values are immutable and all operations are pure functions, so instances
may be shared freely between threads.

Multiplication has two kernels.  Operands with fewer than
KRONECKER_MIN_PRODUCTS term products use a dict schoolbook loop.  Larger
ones use Kronecker substitution (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symb. Comput. 2009): each
operand is written densely into one Python int, with a k-byte slot per
exponent holding coefficient + 2^(8k-1), the bias of all slots is
subtracted, and a single big-integer multiply does all term products in C.

Exactness does not depend on coefficient size.  Every output coefficient
is a sum of at most min(len a, len b) products, so its absolute value is at
most bound = max|a| * max|b| * min(len a, len b).  k is chosen with
bound < 2^(8k-1), i.e. k = bound.bit_length() // 8 + 1 (then rounded up to
1, 2, 4 or 8 bytes where possible, so packing and unpacking can use machine
words).  Adding the output's bias back to the product then leaves every
slot at p_i + 2^(8k-1), which lies in [0, 2^(8k)): no slot carries into the
next, and the slots read back the exact coefficients.  The dense layout
costs memory and time in the exponent span, so a product whose span has
more than half as many exponents as it has term products stays on the
schoolbook loop, as do products below the threshold, where the dict loop is
faster.  Below it fall most cross-multiplications of RationalFunction sums
and comparisons in the hypergeometric series, and many of the q-binomial
products in the refined sums.
"""

from __future__ import annotations

import json
from array import array
from sys import byteorder as _ORDER

from .errors import DivisionByZero, NotDivisible

# Term products (len(a) * len(b)) from which __mul__ uses Kronecker
# substitution instead of the schoolbook loop.
KRONECKER_MIN_PRODUCTS = 256

# Smallest unsigned machine-word array type holding a k-byte slot, k <= 8.
_WORD_FORMAT = {
    k: next(f for f in "BHIQ" if array(f).itemsize >= k) for k in range(1, 9)
}


class LaurentPoly:
    """A Laurent polynomial stored as a mapping {x-exponent: coefficient}.

    Canonical form: no stored coefficient is zero; the zero polynomial has
    an empty mapping.  Equality is equality of the term mappings.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for e, c in terms.items():
                if c:
                    cleaned[int(e)] = c
        self._terms = cleaned

    @classmethod
    def monomial(cls, coeff: int, e: int = 0) -> "LaurentPoly":
        """coeff * x**e; a zero coefficient gives the zero polynomial."""
        return cls({e: coeff})

    @property
    def terms(self):
        """A copy of the term mapping {exponent: coefficient}."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent; raises ValueError on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent; raises ValueError on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other):
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = out
        return result

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a = self._terms
        b = other._terms
        result = LaurentPoly.__new__(LaurentPoly)
        products = len(a) * len(b)
        if products >= KRONECKER_MIN_PRODUCTS and (
            2 * (max(a) - min(a) + max(b) - min(b) + 1) <= products
        ):
            result._terms = _kronecker_mul(a, b)
            return result
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        result._terms = out
        return result

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return q with self = q * other, exactly.

        Raises DivisionByZero if other is zero and NotDivisible if no exact
        Laurent-polynomial quotient exists (including non-integral
        coefficient quotients).
        """
        if other.is_zero():
            raise DivisionByZero("division of LaurentPoly by zero")
        if self.is_zero():
            return ZERO
        rem = dict(self._terms)
        out = {}
        deg_b = other.degree()
        lead_b = other._terms[deg_b]
        # Any exact quotient has valuation val(self) - val(other).
        low_bound = self.valuation() - other.valuation()
        while rem:
            e = max(rem) - deg_b
            if e < low_bound:
                raise NotDivisible("no exact quotient")
            c, r = divmod(rem[e + deg_b], lead_b)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            out[e] = c
            for eb, cb in other._terms.items():
                k = e + eb
                v = rem.get(k, 0) - c * cb
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return LaurentPoly(out)

    def reverse(self) -> "LaurentPoly":
        """Substitute x -> x^(-1): the term at e moves to -e."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def coeff_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at x = 1 (q -> 1)."""
        return sum(self._terms.values())

    # -- serialization ----------------------------------------------------

    def to_pairs(self):
        """[[exponent, coefficient-as-decimal-string], ...], decreasing exponent."""
        return [[e, str(self._terms[e])] for e in sorted(self._terms, reverse=True)]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in pairs})

    def render(self, style: str = "plain") -> str:
        """Deterministic rendering; exponents shown as powers of q with halves.

        Styles: "plain" (q^(3/2) + 2*q + 3), "latex" (q^{3/2} + 2q + 3),
        "json" (the sorted exponent/coefficient pair list).
        """
        if style == "json":
            return json.dumps(self.to_pairs(), separators=(",", ":"))
        if style not in ("plain", "latex"):
            raise ValueError("unknown render style: %r" % (style,))
        if not self._terms:
            return "0"
        pieces = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            power = _q_power(e, style)
            if power is None:
                body = str(mag)
            elif mag == 1:
                body = power
            elif style == "latex":
                body = "%d%s" % (mag, power)
            else:
                body = "%d*%s" % (mag, power)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self._terms,)

    def __str__(self):
        return self.render("plain")


def _kronecker_mul(a: dict, b: dict) -> dict:
    """Product of two nonzero term mappings by Kronecker substitution.

    Returns the canonical product mapping (no zero coefficients); see the
    module docstring for why the slot width k makes it exact.
    """
    va, vb = min(a), min(b)
    n = max(a) - va + max(b) - vb + 1
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    k = bound.bit_length() // 8 + 1
    fmt = _WORD_FORMAT.get(k)
    if fmt:
        k = array(fmt).itemsize
    half = 1 << (8 * k - 1)
    fill = array(fmt, [half]) if fmt else half.to_bytes(k, _ORDER)
    product = _pack(a, va, fill, k, half) * _pack(b, vb, fill, k, half)
    data = (product + int.from_bytes(fill * n, _ORDER)).to_bytes(n * k, _ORDER)
    if fmt:
        slots = array(fmt, data)
    else:
        slots = [int.from_bytes(data[i : i + k], _ORDER) for i in range(0, n * k, k)]
    vc = va + vb
    return {vc + i: c - half for i, c in enumerate(slots) if c != half}


def _pack(terms: dict, low: int, fill, k: int, half: int) -> int:
    """sum of c * 2^(8k(e - low)) over the terms, built from biased slots.

    fill is one slot holding the bias `half`: an array item when k is a
    machine-word width, else k bytes.
    """
    size = max(terms) - low + 1
    if isinstance(fill, array):
        buf = fill * size
        for e, c in terms.items():
            buf[e - low] = c + half
    else:
        buf = bytearray(fill * size)
        for e, c in terms.items():
            i = (e - low) * k
            buf[i : i + k] = (c + half).to_bytes(k, _ORDER)
    return int.from_bytes(buf, _ORDER) - int.from_bytes(fill * size, _ORDER)


def _q_power(e: int, style: str):
    """Render x**e as a power of q, or None for the constant term."""
    if e == 0:
        return None
    if e % 2 == 0:
        n = e // 2
        if style == "latex":
            return "q" if n == 1 else "q^{%d}" % n
        if n == 1:
            return "q"
        return "q^%d" % n if n > 0 else "q^(%d)" % n
    if style == "latex":
        return "q^{%d/2}" % e
    return "q^(%d/2)" % e


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


class RationalFunction:
    """An unreduced fraction of two Laurent polynomials.

    No gcd reduction is performed; equality is by cross-multiplication.
    Used as the carrier for basic hypergeometric partial sums whose
    individual terms are not polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise DivisionByZero("zero denominator in RationalFunction")
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable (unreduced form)")

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def to_json_obj(self):
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)


def rf_eq(a: RationalFunction, b: RationalFunction) -> bool:
    """Cross-multiplied equality of two fractions."""
    return a == b
