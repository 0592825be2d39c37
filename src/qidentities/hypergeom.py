"""Terminating basic hypergeometric series and the q-Pfaff-Saalschutz sum.

Series parameters are restricted to monomials in x = q^(1/2): an upper or
lower parameter x**t is recorded by its x-exponent t, and the argument z
is likewise a monomial x**z_exp.  A pure power q^n has x-exponent 2n.

series_terms is the one builder of a series' terms, each in factored form:
phi_evaluate sums them, and the CLI's explain lists them.

A series is unchanged by permuting its upper parameters or its lower ones,
and the terminating balanced 3-phi-2 of q-Pfaff-Saalschutz is symmetric in
a, b and in c, d = ab q^(1-N)/c, so one series recurs up to four times in
a box grid of instances.  phi_evaluate therefore keeps the sums it makes
in one LRU keyed by the sorted upper and lower exponents and z_exp, and
bounded by the coefficients its values hold (PHI_CACHE_COEFFICIENTS).  A
miss sums the series as given; the value is the same for any order of the
parameters, since each term's factors form one multiset and qf_expand
sorts them, so a hit returns exactly what a fresh sum would.
"""

from __future__ import annotations

import sys
from collections import OrderedDict, namedtuple

from .errors import Degenerate, NonTerminating
from .laurent import ONE, RationalFunction, _as_int
from .qcombo import QFactored, _product, q_pochhammer, qf_expand, qf_mul, qf_to_rational


class PhiSeries(namedtuple("PhiSeries", "upper lower z_exp")):
    """An (r+1)-phi-r series with monomial parameters.

    upper holds the r+1 numerator-parameter x-exponents, lower the r
    denominator-parameter x-exponents, z_exp the argument's x-exponent.
    """

    __slots__ = ()

    def __new__(cls, upper, lower, z_exp):
        upper = tuple([_as_int(e, "upper") for e in upper])
        lower = tuple([_as_int(e, "lower") for e in lower])
        if len(upper) != len(lower) + 1:
            raise ValueError("need exactly one more upper parameter than lower")
        return super().__new__(cls, upper, lower, _as_int(z_exp, "z_exp"))


def _termination_order(upper) -> int:
    """Smallest N >= 0 with some upper parameter equal to q^(-N).

    Raises NonTerminating if no upper exponent has the form -2N.
    """
    orders = [-t // 2 for t in upper if t <= 0 and t % 2 == 0]
    if not orders:
        raise NonTerminating("no upper parameter of the form q^(-N)")
    return min(orders)


def series_terms(series: PhiSeries):
    """The terms of a terminating series in factored form, k = 0 up to its
    termination order: term 0 is 1, and each later term is the one before
    times the factored term ratio, one _product call per step (four linear
    factors over three here), so each step is O(1) factored work.

    On the first next(), before any term: NonTerminating if no upper
    parameter terminates the series, and Degenerate if a lower-parameter
    Pochhammer symbol vanishes in range, found by range membership as
    q_pochhammer finds it, without building the symbol; otherwise a series
    longer than sys.maxsize terms raises OverflowError.
    """
    n_max = _termination_order(series.upper)
    for t in series.lower:
        if 0 in range(t, t + 2 * n_max, 2):
            raise Degenerate(
                "lower parameter x^%d vanishes within summation range" % t
            )
    if n_max > sys.maxsize:
        raise OverflowError("series of %d terms is too long to sum" % n_max)
    term = QFactored()
    yield term
    # below n_max no factor vanishes: n_max is the least termination order,
    # and the lower parameters were checked above; (q; q)_ell has t = 2
    for ell in range(n_max):
        ratio = _product(
            [t + 2 * ell for t in series.upper],
            series.z_exp,
            den=[t + 2 * ell for t in series.lower + (2,)],
        )
        term = qf_mul(term, ratio)
        yield term


# Coefficients, numerator plus denominator list entries, that phi_evaluate's
# memo keeps before it drops the least recently used sums.  It counts
# coefficients, not entries, because a sum grows with N: the 1,716 distinct
# series of verify saalschutz --a=-6..6 --b=-6..6 --c=-6..6 --N 1..3 hold 46
# on average, the 1,229 of --N 7..8 hold 340.  On --N 1..3 this bound keeps
# about 825 sums, and a serial run finds 2,511 of its 3,285 repeated series
# in the memo.  A bound of 2,048 entries keeps every sum of --N 7..8, and
# the run then needs 39 MiB of address space against 25 MiB with this one
# (Linux x86-64, Python 3.11.7).
PHI_CACHE_COEFFICIENTS = 32768


class _SumMemo:
    """phi_evaluate's memo: an LRU from a series key to its summed value,
    holding at most PHI_CACHE_COEFFICIENTS coefficients in all.  A value
    larger than the whole bound is not kept.  It takes no lock: each
    process computes its cells in one thread."""

    __slots__ = ("_values", "coefficients")

    def __init__(self):
        self._values = OrderedDict()
        self.coefficients = 0

    def __len__(self):
        return len(self._values)

    def get(self, key):
        value = self._values.get(key)
        if value is not None:
            self._values.move_to_end(key)
        return value

    def put(self, key, value):
        size = _coefficient_count(value)
        if size > PHI_CACHE_COEFFICIENTS:
            return
        self._values[key] = value
        self.coefficients += size
        while self.coefficients > PHI_CACHE_COEFFICIENTS:
            _, dropped = self._values.popitem(last=False)
            self.coefficients -= _coefficient_count(dropped)

    def cache_clear(self):
        self._values.clear()
        self.coefficients = 0


def _coefficient_count(value: RationalFunction) -> int:
    return len(value.num._coeffs) + len(value.den._coeffs)


_phi_sums = _SumMemo()


def phi_evaluate(series: PhiSeries) -> RationalFunction:
    """Exact value of a terminating series as an unreduced fraction: the
    sum of its series_terms, each split into a fraction by qf_to_rational
    and added with one fraction accumulation.  Raises what series_terms
    raises, on every call: nothing is kept for a series that raises.

    The sum is kept in the memo _phi_sums under the series' parameter
    multisets and z_exp, and returned from there for any later series with
    the same key, whatever the order of its parameters.
    """
    key = (tuple(sorted(series.upper)), tuple(sorted(series.lower)), series.z_exp)
    total = _phi_sums.get(key)
    if total is None:
        terms = series_terms(series)
        next(terms)  # term 0 is 1, the sum's start, never expanded
        total = RationalFunction(ONE)
        for term in terms:
            total = total + qf_to_rational(term)
        _phi_sums.put(key, total)
    return total


class SaalschutzInstance(namedtuple("SaalschutzInstance", "a_exp b_exp c_exp N")):
    """Parameters a = x**a_exp, b = x**b_exp, c = x**c_exp and the
    termination order N of one q-Pfaff-Saalschutz instance.

    The second lower parameter a*b*q^(1-N)/c is derived, never stored.
    """

    __slots__ = ()

    def __new__(cls, a_exp, b_exp, c_exp, N):
        a_exp, b_exp = _as_int(a_exp, "a_exp"), _as_int(b_exp, "b_exp")
        c_exp, N = _as_int(c_exp, "c_exp"), _as_int(N, "N")
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
    """(c/a; q)_N (c/b; q)_N / ((c; q)_N (c/(ab); q)_N), exactly.

    The denominator is built and checked first, (c; q)_N before
    (c/(ab); q)_N, so a degenerate instance raises Degenerate before any
    numerator symbol is built or anything is expanded.
    """
    den = q_pochhammer(inst.c_exp, inst.N)
    if not den.zero:
        den = qf_mul(den, q_pochhammer(inst.c_exp - inst.a_exp - inst.b_exp, inst.N))
    if den.zero:
        raise Degenerate("a denominator Pochhammer symbol vanishes")
    num = qf_mul(
        q_pochhammer(inst.c_exp - inst.a_exp, inst.N),
        q_pochhammer(inst.c_exp - inst.b_exp, inst.N),
    )
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
