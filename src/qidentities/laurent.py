"""Exact Laurent-polynomial arithmetic in the variable x = q^(1/2).

Exponents are integers counting half-steps of q, so the term x^3 denotes
q^(3/2).  Coefficients are Python ints, hence arbitrary precision.  All
values are immutable and all operations are pure functions.  The one
thing a value ever stores after it is built is its Kronecker memo (below),
which only gains entries derived from the value itself; so instances may
be shared freely between threads, and two threads that race on one memo
at worst compute the same entries twice.

Storage is dense: a valuation (the smallest exponent) and the list of
coefficients from there up.  The list is canonical: its first and last
entries are nonzero, interior zeros are allowed, and the zero polynomial
is the empty list with valuation 0.  Degree and valuation are O(1),
equality is list equality, and a sum is one aligned slice addition
followed by trimming the zeros that cancellation leaves at either end.  A
stored list is never changed, so two values may share one.

Multiplication has two kernels.  Below KRONECKER_MIN_PRODUCTS nonzero
term products, __mul__ uses a schoolbook loop that forms the term products
of the nonzero entries one at a time; a one-term operand scales the
other's list in one pass.  From there on, and for every sum of products a
caller hands over whole (sum_of_products, which sums.py uses for each
refined sum, each index's chain of q-binomials and each left-hand side),
Kronecker substitution (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symb. Comput. 2009) writes each
coefficient list into one Python int, a k-byte slot per exponent.  With
X = 2^(8k), that int is the list's polynomial evaluated at X.  Evaluation
is a ring homomorphism, so the product of the ints of a term's factors,
big-integer multiplies in C, is the int of their product, and each
term's product shifted left by its valuation offset in slots and added
gives the int of the sum.  Nothing is unpacked between the multiplies and
the additions; the sum is unpacked once.  __mul__ above the threshold is
the sum of one two-factor term.

The sum is read back from unsigned slots when every factor's smallest
coefficient is >= 0, as every q-binomial's is, and from biased slots
otherwise.  A pack is the evaluation of its polynomial at X whatever its
slots, so each factor is packed by its own sign alone, and a nonnegative
value packed for one kind of sum serves the other at the same width.
For k <= 8 a slot is a machine word: array(fmt, coeffs).tobytes() read as
one int, with fmt the unsigned array type, is sum c_i 2^(8k i), and the
sum's bytes read back as the same array are the output coefficients.
With fmt the signed array type, the same int U holds each coefficient c
as c mod 2^(8k).  Let B be the int with the bias 2^(8k-1) in every slot.
XOR with B flips each slot's top bit, which adds the bias modulo 2^(8k);
since c + 2^(8k-1) already lies in [0, 2^(8k)), U ^ B holds exactly
c + 2^(8k-1) per slot, and (U ^ B) - B is sum c_i 2^(8k i).  Unpacking
runs the same steps backward: the sum S plus its B, XOR B, written out as
bytes and read back as the signed array.  Slots wider than 8 bytes take
the same steps with int.to_bytes and int.from_bytes per coefficient.

Every q-binomial is a polynomial in q = x^2, so its list is zero at every
odd offset from its valuation, and so is any product of q-binomials.  When
every factor has that stride of 2, f = x^v F(x^2), and every term's
valuation has one parity, only the even entries, the coefficients of the
F, are packed: the terms' offsets from the lowest valuation are even, a
shift by half of one in slots aligns them, the unpacked slots are the even
offsets of the sum, and its odd offsets are zero.  The F have the
coefficients of the f, so the bound and k are computed as for stride 1.

A value's Kronecker memo, _kron, is made by _kron_memo from the value
alone the first time it is a Kronecker factor: its smallest coefficient,
its stride, its nonzero count and largest magnitude, and one packed int
per (slot width, stride) it is packed at.  So a cached q-binomial or
refined sum is packed once per slot layout however often it is a factor:
on verify thm2 --d1 1..10 --d2 1..10, 3,553 of the 4,238 factor packs are
found in a memo.  _new and __init__ leave the slot unset, so a value that
never reaches the Kronecker kernel, like most of the small values of the
hypergeometric series, pays nothing for it.  The memo takes no part in
equality, hashing, pickling or copying.

Exactness does not depend on coefficient size.  The packed ints, their
products and their sum are exact ints, and the products' coefficients
are never read, so only the sum's coefficients need to fit their slots.
Their bound is folded along each term's chain: before the first factor
the chain is 1, with top = 1 its largest magnitude and 1 nonzero.  Times a
factor f with n nonzeros, each coefficient is a sum of at most
min(nonzeros, n) products, each at most top * max|f|, so top becomes
top * max|f| * min(nonzeros, n), and the chain then has at most
min(nonzeros * n, its span) nonzeros.  Every coefficient of the sum has
absolute value at most bound = the sum of the terms' tops, max|f| taken
from the memo.  For one product of a and b that is
max|a| * max|b| * min(nonzeros of a, nonzeros of b).  When every factor
is nonnegative, so is every term, and every coefficient of the sum lies
in [0, bound]; k is the smallest width with bound < 2^(8k), so every slot
of the sum holds its coefficient with no carry into the next, and the sum
is below 2^(8kn) for its n slots.  Otherwise every coefficient s_i lies
in [-bound, bound], and k is the smallest width with bound < 2^(8k-1),
one bit more.  Adding B to the sum then leaves every slot at
s_i + 2^(8k-1), which lies in [0, 2^(8k)): no slot carries into or
borrows from the next, and the slots read back the exact coefficients.
Every factor's coefficients are at most bound in absolute value too, so
they fit the same slots when packed.  So
k = ceil((bound.bit_length() + signed) / 8), signed when some factor has a
negative coefficient, rounded up to 1, 2, 4 or 8 bytes where possible, so
packing and unpacking can use machine words.

The dense layout costs memory and time in the exponent span, so __mul__
keeps a product whose span has more than half as many exponents as it has
nonzero term products on the schoolbook loop, as it does products below
the threshold, where the schoolbook loop is faster.  Below it fall most
cross-multiplications of RationalFunction sums and comparisons in the
hypergeometric series.  sum_of_products takes whatever it is given: the
chains and sums of q-binomials sums.py hands it are dense, and one pack
per factor and one unpack per sum cost less than the multiply and the
addition per pair they replace.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, repeat
from math import inf
from operator import add, mul, neg, sub
from sys import byteorder as _ORDER

from .errors import DivisionByZero, NotDivisible

# Nonzero term products (nonzeros of a times nonzeros of b) from which
# __mul__ uses Kronecker substitution instead of the schoolbook loop.
KRONECKER_MIN_PRODUCTS = 256


class LaurentPoly:
    """A Laurent polynomial stored as its valuation and dense coefficients.

    Canonical form: the coefficient list, lowest exponent first, starts
    and ends with a nonzero entry; the zero polynomial is the empty list
    with valuation 0.  Equality is equality of (valuation, list).  The
    constructor takes a mapping {x-exponent: coefficient}; each exponent
    is read by _as_int.
    """

    # _kron, the Kronecker memo, is set only when a value first enters
    # sum_of_products (see _kron_memo)
    __slots__ = ("_val", "_coeffs", "_kron")

    def __init__(self, terms=None):
        nonzero = None
        if terms:
            nonzero = {_as_int(e, "exponent"): c for e, c in terms.items() if c}
        if not nonzero:
            self._val, self._coeffs = 0, []
            return
        low = min(nonzero)
        coeffs = [0] * (max(nonzero) - low + 1)
        for e, c in nonzero.items():
            coeffs[e - low] = c
        self._val, self._coeffs = low, coeffs

    @classmethod
    def monomial(cls, coeff: int, e: int = 0) -> "LaurentPoly":
        """coeff * x**e; a zero coefficient gives the zero polynomial."""
        return _from_coeffs(e, [coeff])

    @property
    def terms(self):
        """The nonzero terms as a new mapping {exponent: coefficient}."""
        c = self._coeffs
        return dict(zip(compress(count(self._val), c), compress(c, c)))

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest exponent; raises ValueError on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._val + len(self._coeffs) - 1

    def valuation(self) -> int:
        """Smallest exponent; raises ValueError on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no valuation")
        return self._val

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._val == other._val and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._val, tuple(self._coeffs)))

    def __reduce__(self):
        # the memo is derived data: a pickle or copy holds the value alone
        return _new, (self._val, self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __neg__(self):
        return _new(self._val, list(map(neg, self._coeffs)))

    def __add__(self, other):
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other
        low, off = self._val, other._val - self._val
        if off < 0:
            a, b, low, off = b, a, other._val, -off
        end = off + len(b)
        out = a + [0] * (end - len(a))
        out[off:end] = map(add, out[off:end], b)
        return _from_coeffs(low, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        na = len(a) - a.count(0)
        nb = len(b) - b.count(0)
        products = na * nb
        if products >= KRONECKER_MIN_PRODUCTS and 2 * (len(a) + len(b) - 1) <= products:
            return sum_of_products([(self, other)])
        # the product of two nonzero polynomials has nonzero end
        # coefficients, so the schoolbook list is already canonical
        return _new(self._val + other._val, _schoolbook_mul(a, b, na, nb))

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
        b = other._coeffs
        n = len(b)
        # Any exact quotient spans valuation(self) - valuation(other) to
        # degree(self) - degree(other).
        size = len(self._coeffs) - n + 1
        if size < 1:
            raise NotDivisible("no exact quotient")
        rem = self._coeffs[:]
        lead = b[-1]
        out = [0] * size
        for i in range(size - 1, -1, -1):
            c, r = divmod(rem[i + n - 1], lead)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            if c:
                out[i] = c
                rem[i : i + n] = map(sub, rem[i : i + n], map(mul, b, repeat(c)))
        if any(rem[: n - 1]):
            raise NotDivisible("no exact quotient")
        return _new(self._val - other._val, out)

    def reverse(self) -> "LaurentPoly":
        """Substitute x -> x^(-1): the term at e moves to -e."""
        if not self._coeffs:
            return ZERO
        return _new(-self.degree(), self._coeffs[::-1])

    def coeff_sum(self) -> int:
        """Sum of all coefficients, i.e. the value at x = 1 (q -> 1)."""
        return sum(self._coeffs)

    # -- serialization ----------------------------------------------------

    def to_pairs(self):
        """[[exponent, coefficient-as-decimal-string], ...], decreasing exponent."""
        top = self._val + len(self._coeffs) - 1
        return [[top - i, str(c)] for i, c in enumerate(reversed(self._coeffs)) if c]

    def to_json(self) -> str:
        """The JSON text of to_pairs(), compact, written in one join."""
        top = self._val + len(self._coeffs) - 1
        return "[%s]" % ",".join(
            [f'[{top - i},"{c}"]' for i, c in enumerate(reversed(self._coeffs)) if c]
        )

    def render(self, style: str = "plain") -> str:
        """Deterministic rendering; exponents shown as powers of q with halves.

        Styles: "plain" (q^(3/2) + 2*q + 3), "latex" (q^{3/2} + 2q + 3),
        "json" (the sorted exponent/coefficient pair list).
        """
        if style == "json":
            return self.to_json()
        if style not in ("plain", "latex"):
            raise ValueError("unknown render style: %r" % (style,))
        if not self._coeffs:
            return "0"
        pieces = []
        top = self._val + len(self._coeffs) - 1
        for i, c in enumerate(reversed(self._coeffs)):
            if not c:
                continue
            mag = abs(c)
            power = _q_power(top - i, style)
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
        return "LaurentPoly(%r)" % (self.terms,)

    def __str__(self):
        return self.render("plain")


def _as_int(value, field: str) -> int:
    """value as the int it equals: an int as it is, another value equal to
    an int (2.0, Fraction(4, 2)) that int.  Any other value raises
    ValueError naming field, so no constructor truncates 2.5 to 2."""
    if value.__class__ is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return n


def _new(val, coeffs):
    """A LaurentPoly from a valuation and a list already in canonical form."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._val = val
    p._coeffs = coeffs
    return p


def _from_coeffs(val, coeffs):
    """sum of coeffs[i] * x^(val + i), with zeros trimmed from both ends.

    Takes ownership of the list, which must not be changed afterwards.
    """
    if coeffs and coeffs[0] and coeffs[-1]:
        return _new(val, coeffs)
    high = len(coeffs)
    while high and not coeffs[high - 1]:
        high -= 1
    if not high:
        return ZERO
    low = 0
    while not coeffs[low]:
        low += 1
    return _new(val + low, coeffs[low:high])


def _schoolbook_mul(a: list, b: list, na: int, nb: int) -> list:
    """Product of two nonzero coefficient lists (lowest exponent first,
    with na and nb nonzero entries), one term product at a time over the
    nonzero entries.  A one-term operand scales the other's list in one
    pass."""
    if na > nb:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else list(map(mul, b, repeat(c)))
    out = [0] * (len(a) + len(b) - 1)
    b_terms = list(zip(compress(count(), b), compress(b, b)))
    for i in compress(count(), a):
        ca = a[i]
        for j, cb in b_terms:
            out[i + j] += ca * cb
    return out


def sum_of_products(terms) -> LaurentPoly:
    """sum over terms of the product of each term's factors, by one
    Kronecker substitution: terms is a list of tuples of nonzero values
    (an empty tuple is 1, an empty list sums to 0).

    Each factor is packed once per slot layout (_packed), each term's
    packs are multiplied into one int, each product is shifted by its
    term's valuation offset in slots and added, and the sum is unpacked
    once.  The slot width k comes from a bound on every coefficient of the
    sum; see the module docstring for why it makes them exact.  The sum is
    read back from unsigned slots when every factor is nonnegative and
    from biased slots, one bit wider, when some factor has a negative
    coefficient.  When every factor is zero at every odd offset and every
    term's valuation has one parity, only even entries are packed.  A lone
    term of one factor or none is that factor, or ONE, returned as it is.
    """
    if len(terms) == 1 and len(terms[0]) < 2:
        return terms[0][0] if terms[0] else ONE
    bound = 0
    low, high = inf, -inf  # the sum's lowest exponent; its top one + 1
    odd = signed = False  # a factor of stride 1; one with a negative coefficient
    parities = 0  # bit 1 (2): a term of even (odd) valuation
    vals = []
    for term in terms:
        val = 0
        span = top = nonzeros = 1
        for f in term:
            f_low, f_stride, _, count, magnitude = _kron_memo(f)
            # each coefficient of the chain so far times f is a sum of at
            # most min(nonzeros, count) products, each at most top * max|f|
            top *= magnitude * (count if count < nonzeros else nonzeros)
            val += f._val
            span += len(f._coeffs) - 1
            nonzeros = nonzeros * count if nonzeros * count < span else span
            if f_stride == 1:
                odd = True
            if f_low < 0:
                signed = True
        bound += top
        parities |= 2 if val & 1 else 1
        if val < low:
            low = val
        if val + span > high:
            high = val + span
        vals.append(val)
    if not vals:
        return ZERO
    stride = 1 if odd or parities == 3 else 2
    k = (bound.bit_length() + signed + 7) // 8
    if k <= 8:
        k = 1 << (k - 1).bit_length()  # a machine word: 1, 2, 4 or 8 bytes
    total = 0
    layout = (k, stride)
    for term, val in zip(terms, vals):
        product = 1
        for f in term:
            packed = f._kron[2].get(layout)
            if packed is None:
                packed = _packed(f, k, stride)
            product *= packed
        total += product << (8 * k * ((val - low) // stride))
    length = high - low  # exponents from low to the top of the sum
    slots = (length - 1) // stride + 1
    if signed:
        bias = _bias(k, slots)
        total = (total + bias) ^ bias
    data = total.to_bytes(k * slots, _ORDER)
    fmt = _WORD_TYPES.get((k, signed))
    if fmt:
        out = array(fmt, data).tolist()
    else:
        out = [int.from_bytes(data[i : i + k], _ORDER, signed=signed)
               for i in range(0, k * slots, k)]
    if stride == 2:
        # a sum of products of polynomials in x^2 is one too
        full = [0] * length
        full[::2] = out
        out = full
    return _from_coeffs(low, out)


# the array types of machine-word slots by (bytes, signed): "B" is (1, False)
_WORD_TYPES = {(array(t).itemsize, t.islower()): t for t in "BHIQbhiq"}


def _kron_memo(p: LaurentPoly) -> tuple:
    """p's Kronecker memo (low, stride, packs, nonzeros, magnitude), made
    from p alone when p is first a Kronecker factor: its smallest
    coefficient, 2 if every odd offset of its list is zero (a polynomial
    in x^2 times a monomial) and 1 otherwise, a dict {(k, stride): packed
    int} that _packed fills, its count of nonzero coefficients and its
    largest absolute value."""
    try:
        return p._kron
    except AttributeError:
        c = p._coeffs
        low, high = min(c), max(c)
        memo = p._kron = (low, 1 if any(c[1::2]) else 2, {},
                          len(c) - c.count(0), high if high > -low else -low)
        return memo


def _packed(p: LaurentPoly, k: int, stride: int) -> int:
    """sum of c_i * 2^(8ki) over p's coefficients c_i at offsets 0, stride,
    2 stride, ...: p evaluated at X = 2^(8k), kept in p's memo under
    (k, stride), where sum_of_products looks for it before it calls this,
    so p is packed once per layout.

    A nonnegative p is packed in unsigned slots, any other p in two's
    complement, read as one unsigned int with each slot's bias added by
    XOR and then subtracted.  Either way the int is the same evaluation,
    so a sum read back from either kind of slot may use it.
    """
    low, _, packs, _, _ = p._kron
    signed = low < 0
    coeffs = p._coeffs if stride == 1 else p._coeffs[::stride]
    fmt = _WORD_TYPES.get((k, signed))
    if fmt:
        data = array(fmt, coeffs).tobytes()
    else:
        data = b"".join([c.to_bytes(k, _ORDER, signed=signed) for c in coeffs])
    packed = int.from_bytes(data, _ORDER)
    if signed:
        bias = _bias(k, len(coeffs))
        packed = (packed ^ bias) - bias
    packs[k, stride] = packed
    return packed


def _bias(k: int, slots: int) -> int:
    """The int with 2^(8k-1) in each of its `slots` k-byte slots."""
    return int.from_bytes((1 << (8 * k - 1)).to_bytes(k, _ORDER) * slots, _ORDER)


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

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def to_json_obj(self):
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    def to_json(self) -> str:
        """The JSON text of to_json_obj(), compact."""
        return '{"num":%s,"den":%s}' % (self.num.to_json(), self.den.to_json())

    def render(self, style: str = "plain") -> str:
        """The unreduced fraction in a LaurentPoly.render style: "json" is
        to_json(), "plain" is (num)/(den) and "latex" is \\frac{num}{den}."""
        if style == "json":
            return self.to_json()
        num, den = self.num.render(style), self.den.render(style)
        return ("\\frac{%s}{%s}" if style == "latex" else "(%s)/(%s)") % (num, den)

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)
