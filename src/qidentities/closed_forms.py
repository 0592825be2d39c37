"""Closed forms for the refined sum, both theorems, and the two
generating-series values.

Everything is assembled in factored form (QFactored) and expanded once at
the end, so bracket ratios like [2d0]_q / [d0]_q never pass through a
Laurent-polynomial division chain.  Each bracket ratio [a]_q / [b]_q is
one _product call, x**(b - a) (1 - x**(2a)) / (1 - x**(2b)).

Where a value has two published spellings, they differ in one q-binomial,
qbinom(n, k) = qbinom(n, n - k), built on the short side of its row for
the value and again on the long side for the check.  The two are compared
as QFactored values after the one expansion, which fails first on a value
too large to expand.  That comparison is exact
equality of the rational functions they denote, because the canonical
form sign * x^p * prod over e of (1 - x^e)^(m_e) (e >= 1, no m_e zero) of
a nonzero value is unique.  Write 1 - x^e = -prod over d | e of Phi_d(x),
with Phi_d the d-th cyclotomic polynomial.  The value is then
+-x^p * prod over d of Phi_d^(c_d) with c_d = sum over multiples e of d of
m_e.  Factorization of rational functions into irreducibles is unique, so
the value fixes p, each c_d and the sign; and the map from the m_e to the
c_d is unitriangular (c_d = m_d + terms with e > d), so the c_d fix every
m_e, from the largest e down.
"""

from __future__ import annotations

from .errors import InvalidHypothesis
from .laurent import LaurentPoly
from .qcombo import _product, _q_binomial_row, q_binomial_factored
from .qcombo import qf_expand_ratio, qf_mul

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
    qf = _product((2 * D,), k0 - D, den=(2 * k0,))
    qf = qf_mul(qf, q_binomial_factored(D - d1 + k0 - 1, k0 - 1))
    qf = qf_mul(qf, q_binomial_factored(d1 - 1, k0 - 1))
    return qf_expand_ratio(qf)


def _check_spellings(n: int, k: int, where: str) -> None:
    """Raise ArithmeticError unless qbinom(n, k), 0 <= k <= n, is the same
    built on the short side of its row and on the long side."""
    if q_binomial_factored(n, k) != _q_binomial_row(n, max(k, n - k)):
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
    qf = _product((4 * d0,), -d0, den=(2 * d0,))
    qf = qf_mul(qf, q_binomial_factored(d0, d1))
    value = qf_expand_ratio(qf_mul(qf, q_binomial_factored(d0 + d1 - 1, d0)))
    _check_spellings(d0 + d1 - 1, d0, "theorem1_rhs(%d, %d)" % (d0, d1))
    return value


def theorem2_rhs(d1: int, d2: int) -> LaurentPoly:
    """([2d1 + d2]_q / [d2]_q) * qbinom(d1 + d2 - 1, d1)**2.

    Also checks the generating-series spelling with qbinom(d1 + d2 - 1,
    d2 - 1) squared, the other side of the same row: both sides are built
    and compared in factored form, which is exact (see the module
    docstring), after the one expansion; a disagreement raises
    ArithmeticError.  Requires d1 >= 1 and d2 >= 1 (the bracket [d2]_q
    vanishes at d2 = 0).
    """
    if d1 < 1 or d2 < 1:
        raise InvalidHypothesis("theorem 2 requires d1 >= 1 and d2 >= 1")
    qf = _product((4 * d1 + 2 * d2,), -2 * d1, den=(2 * d2,))
    bino = q_binomial_factored(d1 + d2 - 1, d1)
    value = qf_expand_ratio(qf_mul(qf, qf_mul(bino, bino)))
    _check_spellings(d1 + d2 - 1, d1, "theorem2_rhs(%d, %d)" % (d1, d2))
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
