"""Closed forms for the refined sum, both theorems, and the two
generating-series values.

Each closed form is a bracket ratio [a]_q / [b]_q times q-binomials.
Each q-binomial is expanded on its own from q_binomial_factored, not taken
from the LRU caches the left-hand sides use, so a closed form shares no
value with the left-hand side it is checked against.  The expanded
q-binomials are multiplied, a factor 1 skipped, and the bracket ratio,
one _product call x**(b - a) (1 - x**(2a)) / (1 - x**(2b)), is applied by
one expansion pass started from their product: one strided multiply and
one strided exact division, never a Laurent-polynomial division chain.
(Expanding the whole factored value in one pass instead grows the list to
the full numerator before the first division.)

Where a value has two published spellings, they differ in one q-binomial,
qbinom(n, k) = qbinom(n, n - k).  It is built once, on the short side of
its row, and that very factored value is both expanded into the closed
form and compared with the same q-binomial built on the long side, so the
check covers the value the closed form used.  The comparison is made on
QFactored values after the value is expanded, which fails first on a
value too large to expand.  It is exact equality of the rational
functions they denote, because the canonical form sign * x^p * prod over
e of (1 - x^e)^(m_e) (e >= 1, no m_e zero) of a nonzero value is unique.
Write 1 - x^e = -prod over d | e of Phi_d(x), with Phi_d the d-th
cyclotomic polynomial.  The value is then
+-x^p * prod over d of Phi_d^(c_d) with c_d = sum over multiples e of d of
m_e.  Factorization of rational functions into irreducibles is unique, so
the value fixes p, each c_d and the sign; and the map from the m_e to the
c_d is unitriangular (c_d = m_d + terms with e > d), so the c_d fix every
m_e, from the largest e down.
"""

from __future__ import annotations

from .errors import InvalidHypothesis
from .laurent import ONE, ZERO, LaurentPoly
from .qcombo import _product, _q_binomial_row, q_binomial_factored, qf_expand_ratio

SURFACE_TAGS = ("dP1_04", "F0_04")


def prop3_rhs(D: int, d1: int, k0: int) -> LaurentPoly:
    """Closed form of the refined sum:
    ([D]_q / [k0]_q) * qbinom(D - d1 + k0 - 1, k0 - 1) * qbinom(d1 - 1, k0 - 1),
    where D is the doubled first parameter.  Requires 1 <= k0 <= d1 and D >= 1.

    The first binomial's top D - d1 + k0 - 1 can be negative for small D;
    it is taken in the generic-ratio (signed) convention, which is what
    makes the closed form valid for arbitrary positive D.
    """
    if D < 1:
        raise InvalidHypothesis("D must be >= 1")
    if not 1 <= k0 <= d1:
        raise InvalidHypothesis("requires 1 <= k0 <= d1")
    return _times_ratio(
        _product((2 * D,), k0 - D, den=(2 * k0,)),
        qf_expand_ratio(q_binomial_factored(D - d1 + k0 - 1, k0 - 1)),
        qf_expand_ratio(q_binomial_factored(d1 - 1, k0 - 1)),
    )


def _times_ratio(ratio, *factors) -> LaurentPoly:
    """ratio, a factored bracket ratio [a]_q / [b]_q, times the product of
    factors, expanded q-binomials.  Any factor 0 makes the value 0, a
    factor 1 is not multiplied in, and the ratio is applied by one
    qf_expand_ratio pass started from the factors' product."""
    product = ONE
    for factor in factors:
        if factor.is_zero():
            return ZERO
        if factor != ONE:
            product = factor if product is ONE else product * factor
    return qf_expand_ratio(ratio, product)


def _check_spellings(published, n: int, k: int, where: str) -> None:
    """Raise ArithmeticError unless published, the factored qbinom(n, k)
    (0 <= k <= n) a closed form expanded, equals qbinom(n, k) built on the
    long side of its row."""
    if published != _q_binomial_row(n, max(k, n - k)):
        raise ArithmeticError("binomial-spelling disagreement in %s" % where)


def theorem1_rhs(d0: int, d1: int) -> LaurentPoly:
    """([2d0]_q / [d0]_q) * qbinom(d0, d1) * qbinom(d0 + d1 - 1, d0).

    The bracket ratio equals x**d0 + x**(-d0).  Also checks the
    generating-series spelling with qbinom(d0 + d1 - 1, d1 - 1), the other
    side of the last binomial's row, as theorem2_rhs does.  Requires
    d0 > d1 >= 1.
    """
    if d1 < 1 or d0 <= d1:
        raise InvalidHypothesis("theorem 1 requires d0 > d1 >= 1")
    published = q_binomial_factored(d0 + d1 - 1, d0)
    value = _times_ratio(
        _product((4 * d0,), -d0, den=(2 * d0,)),
        qf_expand_ratio(q_binomial_factored(d0, d1)),
        qf_expand_ratio(published),
    )
    _check_spellings(published, d0 + d1 - 1, d0, "theorem1_rhs(%d, %d)" % (d0, d1))
    return value


def theorem2_rhs(d1: int, d2: int) -> LaurentPoly:
    """([2d1 + d2]_q / [d2]_q) * qbinom(d1 + d2 - 1, d1)**2.

    Also checks the generating-series spelling with qbinom(d1 + d2 - 1,
    d2 - 1) squared, the other side of the same row: the factored binomial
    the value expands is compared with that side in factored form, which
    is exact (see the module docstring), after the value is expanded; a
    disagreement raises ArithmeticError.  Requires d1 >= 1 and d2 >= 1
    (the bracket [d2]_q vanishes at d2 = 0).
    """
    if d1 < 1 or d2 < 1:
        raise InvalidHypothesis("theorem 2 requires d1 >= 1 and d2 >= 1")
    published = q_binomial_factored(d1 + d2 - 1, d1)
    bino = qf_expand_ratio(published)
    value = _times_ratio(_product((4 * d1 + 2 * d2,), -2 * d1, den=(2 * d2,)), bino, bino)
    _check_spellings(published, d1 + d2 - 1, d1, "theorem2_rhs(%d, %d)" % (d1, d2))
    return value


def nlog_value(surface: str, p: int, r: int) -> LaurentPoly:
    """The generating-series value for one of the two supported surfaces.

    For "dP1_04" the arguments are (d0, d1) with d0 > d1 >= 1; for "F0_04"
    they are (d1, d2) with both >= 1, as each theorem checks.  Each
    theorem's closed form checks the published binomial spelling.
    """
    if surface not in SURFACE_TAGS:
        raise ValueError("unknown surface tag: %r" % (surface,))
    return (theorem1_rhs if surface == "dP1_04" else theorem2_rhs)(p, r)
