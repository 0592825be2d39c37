"""q-integers, q-Pochhammer symbols, and q-binomial coefficients.

Everything is built on QFactored, a signed monomial times a product of
cyclotomic-style factors (1 - x^e), held as the tuple (sign, x_power,
factors); zero is sign 0.  One constructor, _product, builds
every q-symbol and every ratio of them from numerator and denominator
exponents, and is the only code that turns an exponent into a stored
factor on either side.  Values stay factored for as long as possible and
are expanded once, in a single dense pass over a coefficient list: each
numerator factor is one strided O(n) update and each denominator factor
one strided O(n) division, with no general polynomial multiplication or
division.  The pass may start from a given polynomial's coefficients
instead of from 1: the cached q-binomials take one row step each, from
the cached neighbour [n, k - 1], with one strided multiply and one
strided division, and a closed form applies its bracket ratio to the
product of its expanded q-binomials the same way.  A pass from 1 is made
once per distinct value in a process: qf_expand keeps its results in one
bounded LRU keyed by the value's fields, since the same Pochhammer
symbols and series terms recur from cell to cell of a grid.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import neg, sub

from .errors import DivisionByZero, NotDivisible, _as_int
from .laurent import ONE, ZERO, LaurentPoly, RationalFunction, _from_coeffs


class QFactored(namedtuple("QFactored", "sign x_power factors")):
    """sign * x**x_power * prod over e of (1 - x**e)**mult, as the tuple
    (sign, x_power, factors) with factors a dict {e: mult}.

    Zero is sign 0, always stored as (0, 0, {}); any other sign is +1 or
    -1.  Invariants: factor keys e are >= 1 (_product normalizes an
    exponent e <= 0); no stored multiplicity is zero.  Multiplicities may
    be negative, in which case the value is a genuine rational function
    rather than a Laurent polynomial.
    """

    __slots__ = ()

    def __new__(cls, sign=1, x_power=0, factors=None):
        sign = _as_int(sign, "sign")
        if sign not in (1, -1, 0):
            raise ValueError("sign must be +1, -1 or 0")
        if not sign:
            return tuple.__new__(cls, (0, 0, {}))
        cleaned = {}
        if factors:
            for e, m in factors.items():
                e, m = _as_int(e, "factor exponent"), _as_int(m, "multiplicity")
                if e < 1:
                    raise ValueError("factor exponents must be >= 1")
                if m:
                    cleaned[e] = m
        return tuple.__new__(cls, (sign, _as_int(x_power, "x_power"), cleaned))

    @property
    def zero(self) -> bool:
        return not self.sign


def _qf(sign, x_power, factors) -> QFactored:
    """QFactored(sign, x_power, factors) for fields this module built, so
    already valid: an int sign in (1, -1, 0), an int x_power and int keys
    >= 1.  Takes ownership of the dict, drops its zero multiplicities, and
    keeps zero as (0, 0, {})."""
    if not sign:
        return tuple.__new__(QFactored, (0, 0, {}))
    if 0 in factors.values():
        factors = {e: m for e, m in factors.items() if m}
    return tuple.__new__(QFactored, (sign, x_power, factors))


def _product(exps, x_power=0, sign=1, den=()) -> QFactored:
    """sign * x**x_power * prod over e in exps of (1 - x**e), divided by
    prod over e in den of (1 - x**e), normalized: 1 - x^e = -x^e (1 - x^(-e)),
    and 1 - x^0 = 0 makes the value zero in exps and raises DivisionByZero
    in den.  A factor on both sides cancels."""
    factors = {}
    for e in den:
        if e == 0:
            raise DivisionByZero("denominator factor 1 - x^0 = 0")
        if e < 0:
            sign, x_power, e = -sign, x_power - e, -e
        factors[e] = factors.get(e, 0) - 1
    for e in exps:
        if e == 0:
            return _qf(0, 0, {})
        if e < 0:
            sign, x_power, e = -sign, x_power + e, -e
        factors[e] = factors.get(e, 0) + 1
    return _qf(sign, x_power, factors)


def qf_mul(a: QFactored, b: QFactored) -> QFactored:
    """Exact product: multiplicities add and signs multiply, so a zero
    operand gives zero."""
    factors = dict(a.factors)
    for e, m in b.factors.items():
        factors[e] = factors.get(e, 0) + m
    return _qf(a.sign * b.sign, a.x_power + b.x_power, factors)


def qf_div(a: QFactored, b: QFactored) -> QFactored:
    """Exact quotient in factored form; raises DivisionByZero if b is zero."""
    if b.zero:
        raise DivisionByZero("division of QFactored by zero")
    return qf_mul(a, QFactored(b.sign, -b.x_power, {e: -m for e, m in b.factors.items()}))


def qf_expand(a: QFactored, start: LaurentPoly = ONE) -> LaurentPoly:
    """Expand a factored value times start, a nonzero LaurentPoly, into a
    LaurentPoly, by the one dense pass (_expand) started from start's
    coefficients.

    Negative multiplicities are divided out exactly, so any product that
    is a Laurent polynomial expands, such as a q-binomial as its ratio of
    q-integers, or a bracket ratio [a]_q / [b]_q started from a product of
    q-binomials; any other product raises NotDivisible.

    A value expanded from 1, the default start, is looked up in one
    bounded LRU (QF_EXPAND_CACHE_SIZE entries) keyed by its fields, so a
    process expands each distinct value once and shares the LaurentPoly,
    which is immutable, with every later caller.  An error is raised again
    on every call, never cached.
    """
    factors = sorted(a.factors.items())
    if start is ONE:
        return _expanded(a.sign, a.x_power, tuple(factors))
    return _expand(a.sign, a.x_power, factors, start)


def qf_to_rational(a: QFactored) -> RationalFunction:
    """Split into numerator (positive multiplicities, sign, monomial) over
    denominator (negative multiplicities)."""
    num = _qf(a.sign, a.x_power, {e: m for e, m in a.factors.items() if m > 0})
    den = _qf(1, 0, {e: -m for e, m in a.factors.items() if m < 0})
    return RationalFunction(qf_expand(num), qf_expand(den))


# The old name of qf_expand.  It stays only because perfbench/layers.py
# traces it at its qcombo and closed_forms sites, and pytest perfbench
# requires every traced site to exist; closed_forms calls it by this name.
# ROADMAP item I, which moves the tracer into the package, deletes it.
qf_expand_ratio = qf_expand


def _expand(sign, x_power, factors, start):
    """The one expansion pass: dense coefficients of the value with fields
    sign, x_power and factors, the (e, mult) pairs of its factor dict,
    times start, from x**(x_power + valuation of start) up; start is a
    nonzero LaurentPoly.

    Starting from start's coefficients times the sign, each positive
    factor 1 - x^e is multiplied in by a strided O(n) update, t - x^e t;
    then each negative factor is divided out with _divide_one_minus_x,
    which raises NotDivisible if the quotient is not exact.  A positive
    factor's exponent no list could index (above sys.maxsize) raises
    OverflowError.  start's list is read, never changed.
    """
    if not sign:
        return ZERO
    coeffs = start._coeffs if sign == 1 else list(map(neg, start._coeffs))
    factors = sorted(factors)
    for e, m in factors:
        if m > 0 and e > sys.maxsize:
            raise OverflowError("factor x-exponent %d is too large to expand" % e)
        for _ in range(m):
            out = coeffs + [0] * e
            out[e:] = map(sub, out[e:], coeffs)
            coeffs = out
    for e, m in factors:
        for _ in range(-m):
            coeffs = _divide_one_minus_x(coeffs, e)
    return _from_coeffs(x_power + start._val, coeffs)


def _divide_one_minus_x(t, e):
    """Dense quotient of t by (1 - x^e), both lowest coefficient first.

    q[i] = t[i] + q[i - e] in one ascending pass, which along each residue
    class mod e is a running sum.  The quotient is exact iff the top e
    coefficients of t equal -q[i - e]; otherwise raise NotDivisible.
    """
    size = len(t) - e
    if size < 1:
        raise NotDivisible("no exact quotient by 1 - x^%d" % e)
    q = [0] * size
    for r in range(min(e, size)):
        q[r::e] = accumulate(t[r:size:e])
    tail = q[max(size - e, 0):]
    if t[size:] != [0] * (e - len(tail)) + [-c for c in tail]:
        raise NotDivisible("no exact quotient by 1 - x^%d" % e)
    return q


def q_int(alpha: int) -> QFactored:
    """The symmetric q-integer x**alpha - x**(-alpha), in the factored
    form -x**(-alpha) (1 - x**(2 alpha)).

    Vanishes at alpha = 0 and is antisymmetric in alpha.  A ratio
    [a]_q / [b]_q is x**(b - a) (1 - x**(2a)) / (1 - x**(2b)), one
    _product call.  alpha is read as the int it equals (_as_int), so a
    non-integral value raises ValueError naming it.
    """
    alpha = _as_int(alpha, "alpha")
    return _product((2 * alpha,), -alpha, -1)


def q_pochhammer(t: int, m: int) -> QFactored:
    """(x**t; q)_m = prod over j in [0, m) of (1 - x**(t + 2j)).

    The base parameter is restricted to the monomial x**t; m must be >= 0.
    The result is zero iff some t + 2j vanishes in range; otherwise an m
    no expansion could index (above sys.maxsize) raises OverflowError.
    t and m are read as the ints they equal (_as_int), so a non-integral
    value raises ValueError naming it.
    """
    t, m = _as_int(t, "t"), _as_int(m, "m")
    if m < 0:
        raise ValueError("Pochhammer count must be >= 0")
    exps = range(t, t + 2 * m, 2)
    if 0 in exps:
        return QFactored(0)
    if m > sys.maxsize:
        raise OverflowError("Pochhammer count %d is too large to expand" % m)
    return _product(exps)


def q_binomial_factored(n: int, k: int) -> QFactored:
    """The q-binomial coefficient as a QFactored ratio of q-integers, in
    the generic-ratio convention: n may be negative.

    A negative top is reflected, [n, k] = (-1)^k [k - n - 1, k], and the
    row is built on its short side, min(k, n - k).  Returns zero for k < 0
    and for 0 <= n < k.  The ratio typically carries negative
    multiplicities even though its value is polynomial; qf_expand divides
    them out.  n and k are read as the ints they equal (_as_int), so a
    non-integral value raises ValueError naming it.
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if k < 0 or 0 <= n < k:
        return QFactored(0)
    if n < 0:
        return _q_binomial_row(k - n - 1, min(k, -n - 1), -1 if k % 2 else 1)
    return _q_binomial_row(n, min(k, n - k))


def _q_binomial_row(n: int, k: int, sign: int = 1) -> QFactored:
    """sign * [n, k], 0 <= k <= n, as k q-integers over k: their signs
    cancel and their monomials leave x**(k (k - n)).  Raises OverflowError
    for a k above sys.maxsize."""
    if k > sys.maxsize:
        raise OverflowError("q-binomial bottom index %d is too large to expand" % k)
    return _product(
        [2 * (n - i) for i in range(k)],
        k * (k - n),
        sign,
        den=[2 * (k - i) for i in range(k)],
    )


# Entries each q-binomial cache keeps before it drops the least recently
# used: well above a grid's working set (verify thm2 --d1 1..14 --d2 1..10
# holds 328 signed and 140 plain entries, --d1 1..24 584 and 240), yet
# bounded for long sweeps.  A kept value also keeps the packed ints of its
# Kronecker memo (laurent): on the 1..24 grid, 0.41 MB beside 1.45 MB of
# coefficient lists for the 361 q-binomials the sums multiply by.
Q_BINOMIAL_CACHE_SIZE = 2048


# Entries qf_expand's memo keeps before it drops the least recently used.
# Before phi_evaluate kept its sums, verify saalschutz --a=-6..6 --b=-6..6
# --c=-6..6 --N 1..3 expanded 2,362 distinct values in 24,720 calls: 2048
# entries hit 90.0% of them, 4096 90.4%; on --N 7..8 they hit 61% and 72%,
# but the CLI's peak RSS rose from 16.1 MB without the memo to 20.5 and
# 23.7 MB (26.0 MB unbounded).  With it, --N 1..3 makes 17,802 calls, of
# which 86.2% hit.  An entry grows with N: about 10 KB each at N 20..23, so
# a deep grid may keep about 20 MB here (Linux x86-64, Python 3.11.7).
QF_EXPAND_CACHE_SIZE = 2048


@lru_cache(maxsize=QF_EXPAND_CACHE_SIZE)
def _expanded(sign, x_power, factors):
    """qf_expand's memo: _expand from 1 of the value with these fields,
    factors as a sorted tuple of (e, mult) pairs."""
    return _expand(sign, x_power, factors, ONE)


@lru_cache(maxsize=Q_BINOMIAL_CACHE_SIZE)
def q_binomial(n: int, k: int) -> LaurentPoly:
    """The symmetric q-binomial coefficient as a Laurent polynomial.

    [n choose k]_q = [n]_q [n-1]_q ... [n-k+1]_q / ([k]_q ... [1]_q) for
    0 <= k <= n, and the zero polynomial otherwise (negative arguments
    included).  Always palindromic under x -> x^(-1).  On a cache miss n
    and k are read as the ints they equal (_as_int), so a non-integral
    value raises ValueError naming it, whatever the cache holds; a value
    equal to an int finds that int's entry.
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    return ZERO if n < 0 else q_binomial_signed(n, k)


@lru_cache(maxsize=Q_BINOMIAL_CACHE_SIZE)
def q_binomial_signed(n: int, k: int) -> LaurentPoly:
    """The q-binomial as the generic ratio of q-integers, valid for any
    integer top.

    For n >= 0 this agrees with q_binomial (the ratio contains the factor
    [0]_q = 0 whenever 0 <= n < k).  For n < 0 the ratio never vanishes
    and equals (-1)^k times a positive q-binomial, matching the classical
    negative-top extension of binomial coefficients.  Still palindromic
    under x -> x^(-1), since each q-integer is antisymmetric.  This is the
    convention under which the refined-sum closed form holds for every
    positive D, not just D large relative to d1.

    Each value is one row step from the cached [n, k - 1]:
    [n, k] = [n, k - 1] [n - k + 1]_q / [k]_q (Gasper and Rahman, Basic
    Hypergeometric Series, 2004, section 1.3), expanded as one strided
    multiply and one strided division.  A row is walked on its shorter
    side: min(k, n - k) steps for n >= 0, by the symmetry
    [n, k] = [n, n - k], and min(k, -n - 1) for n < 0, by the reflection
    [n, k] = (-1)^k [k - n - 1, k].  The row below k is looked up in
    ascending order, so a cold row is built upward from [n, 0] = 1 in a
    loop, and the stack depth does not grow with k.  Arguments are read
    as q_binomial reads them.
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if k < 0 or 0 <= n < k:
        return ZERO
    if k == 0:
        return ONE
    if n < 0 and k > -n - 1:
        value = q_binomial_signed(k - n - 1, k)
        return -value if k % 2 else value
    if 2 * k > n >= 0:
        return q_binomial_signed(n, n - k)
    below = ONE
    for j in range(1, k):
        below = q_binomial_signed(n, j)
    step = _product((2 * (n - k + 1),), 2 * k - n - 1, den=(2 * k,))
    return _expand(step.sign, step.x_power, step.factors.items(), below)
