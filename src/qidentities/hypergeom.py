"""Terminating basic hypergeometric series and the q-Pfaff-Saalschutz sum.

Series parameters are restricted to monomials in x = q^(1/2): an upper or
lower parameter x**t is recorded by its x-exponent t, and the argument z
is likewise a monomial x**z_exp.  A pure power q^n has x-exponent 2n.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import Degenerate, NonTerminating
from .laurent import ONE, RationalFunction
from .qcombo import QFactored, _product, q_pochhammer, qf_expand, qf_mul, qf_to_rational


class PhiSeries(namedtuple("PhiSeries", "upper lower z_exp")):
    """An (r+1)-phi-r series with monomial parameters.

    upper holds the r+1 numerator-parameter x-exponents, lower the r
    denominator-parameter x-exponents, z_exp the argument's x-exponent.
    """

    __slots__ = ()

    def __new__(cls, upper, lower, z_exp):
        upper, lower = tuple(map(int, upper)), tuple(map(int, lower))
        if len(upper) != len(lower) + 1:
            raise ValueError("need exactly one more upper parameter than lower")
        return super().__new__(cls, upper, lower, z_exp)


def _termination_order(upper) -> int:
    """Smallest N >= 0 with some upper parameter equal to q^(-N).

    Raises NonTerminating if no upper exponent has the form -2N.
    """
    orders = [-t // 2 for t in upper if t <= 0 and t % 2 == 0]
    if not orders:
        raise NonTerminating("no upper parameter of the form q^(-N)")
    return min(orders)


def phi_evaluate(series: PhiSeries) -> RationalFunction:
    """Exact value of a terminating series as an unreduced fraction.

    Successive terms are built from the factored term ratio, one _product
    call per step (four linear factors over three here), so each step is
    O(1) factored work plus one fraction accumulation.  Raises
    NonTerminating if no upper parameter terminates the series, and
    Degenerate if a lower-parameter Pochhammer symbol vanishes in range.
    """
    n_max = _termination_order(series.upper)
    for t in series.lower:
        if q_pochhammer(t, n_max).zero:
            raise Degenerate(
                "lower parameter x^%d vanishes within summation range" % t
            )
    total = RationalFunction(ONE)
    term = QFactored()
    # below n_max no factor vanishes: n_max is the least termination order,
    # and the lower parameters were checked above; (q; q)_ell has t = 2
    for ell in range(n_max):
        ratio = _product(
            [t + 2 * ell for t in series.upper],
            series.z_exp,
            den=[t + 2 * ell for t in series.lower + (2,)],
        )
        term = qf_mul(term, ratio)
        total = total + qf_to_rational(term)
    return total


class SaalschutzInstance(namedtuple("SaalschutzInstance", "a_exp b_exp c_exp N")):
    """Parameters a = x**a_exp, b = x**b_exp, c = x**c_exp and the
    termination order N of one q-Pfaff-Saalschutz instance.

    The second lower parameter a*b*q^(1-N)/c is derived, never stored.
    """

    __slots__ = ()

    def __new__(cls, a_exp, b_exp, c_exp, N):
        if N < 0:
            raise ValueError("N must be a nonnegative integer")
        return super().__new__(cls, a_exp, b_exp, c_exp, N)

    def derived_lower_exp(self) -> int:
        return self.a_exp + self.b_exp + 2 * (1 - self.N) - self.c_exp

    def lhs_series(self) -> PhiSeries:
        return PhiSeries(
            upper=(self.a_exp, self.b_exp, -2 * self.N),
            lower=(self.c_exp, self.derived_lower_exp()),
            z_exp=2,
        )


def saalschutz_rhs(inst: SaalschutzInstance) -> RationalFunction:
    """(c/a; q)_N (c/b; q)_N / ((c; q)_N (c/(ab); q)_N), exactly."""
    num = qf_mul(
        q_pochhammer(inst.c_exp - inst.a_exp, inst.N),
        q_pochhammer(inst.c_exp - inst.b_exp, inst.N),
    )
    den = qf_mul(
        q_pochhammer(inst.c_exp, inst.N),
        q_pochhammer(inst.c_exp - inst.a_exp - inst.b_exp, inst.N),
    )
    if den.zero:
        raise Degenerate("a denominator Pochhammer symbol vanishes")
    return RationalFunction(qf_expand(num), qf_expand(den))


def verify_saalschutz(inst: SaalschutzInstance) -> bool:
    """True iff the terminating series equals the closed form, by
    cross-multiplied fraction equality.

    The closed form goes first: its denominator vanishes exactly when a
    lower-parameter Pochhammer symbol does, so a degenerate instance raises
    Degenerate before any term is summed; such instances are skipped, not
    failed.
    """
    rhs = saalschutz_rhs(inst)
    return phi_evaluate(inst.lhs_series()) == rhs


def is_saalschutzian(series: PhiSeries) -> bool:
    """Structural check: does a 3-phi-2 with z = q match the
    q-Pfaff-Saalschutz parameter pattern for some assignment of
    (a, b, N, c)?"""
    if len(series.upper) != 3 or len(series.lower) != 2 or series.z_exp != 2:
        return False
    for i, t in enumerate(series.upper):
        if t > 0 or t % 2 != 0:
            continue
        a, b = (series.upper[j] for j in range(3) if j != i)
        for c, other in (series.lower, series.lower[::-1]):
            if other == SaalschutzInstance(a, b, c, -t // 2).derived_lower_exp():
                return True
    return False
