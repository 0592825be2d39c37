"""Partition-indexed sums: the refined sum f and the left-hand sides of
Proposition 3 and both theorems.

Indices are integer partitions written in distinct-part/multiplicity form:
strictly decreasing parts n_1 > ... > n_m > 0 with positive multiplicities
k_1, ..., k_m.  The empty partition ((), ()) is the one index of weight 0.
The refined sum f pins both the weighted sum of parts and the total
multiplicity, so its conventions at zero (f(D, 0, 0) = 1, and 0 when
exactly one of d1, k0 is 0) are what the partition sum itself gives.

All three left-hand sides are one partition sum over the indices of
weighted sum d: f_term(D, idx) times trailing[k], a q-binomial of
k = sum k_i (for Proposition 3, 1 at k = k0 alone); an index whose k is
not a key is left out.  _two_path_sum sums it by k, as Proposition 3
does: f(D, d, k) trailing[k] over the nonzero trailing[k], each f checked
by the direct transcription against the recursion (they share only the
q-binomial caches).  f_recursive memoizes every refined sum it reaches,
in one bounded LRU over (D, d1, k0), so every later call reuses them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InvalidHypothesis
from .laurent import ONE, ZERO, LaurentPoly
from .qcombo import q_binomial, q_binomial_signed


class PartitionedIndex(namedtuple("PartitionedIndex", "parts mults")):
    """One summand's index: parts strictly decreasing and positive, mults
    all >= 1, both of equal length; the empty index has weight 0."""

    __slots__ = ()

    def __new__(cls, parts, mults):
        parts, mults = tuple(map(int, parts)), tuple(map(int, mults))
        if len(parts) != len(mults):
            raise ValueError("parts and mults must have equal length")
        if any(k < 1 for k in mults):
            raise ValueError("multiplicities must be >= 1")
        # strictly decreasing down to a trailing 0 means decreasing and positive
        if any(a <= b for a, b in zip(parts, parts[1:] + (0,))):
            raise ValueError("parts must be strictly decreasing and positive")
        return super().__new__(cls, parts, mults)

    def mult_sum(self) -> int:
        return sum(self.mults)

    def to_json_obj(self):
        return {"parts": list(self.parts), "mults": list(self.mults)}


class FSumSpec(namedtuple("FSumSpec", "D d1 k0")):
    """Arguments of the refined sum f.

    D is the doubled first parameter (D = 2*d0), so half-integer d0 is
    representable; d1 is the weighted-sum target and k0 the total
    multiplicity.
    """

    __slots__ = ()

    def __new__(cls, D, d1, k0):
        if d1 < 0 or k0 < 0:
            raise ValueError("d1 and k0 must be nonnegative")
        return super().__new__(cls, D, d1, k0)


def _raw_indices(remaining, max_part):
    """All (parts, mults) with distinct parts <= max_part summing (weighted)
    to remaining; no particular order."""
    if remaining == 0:
        yield (), ()
        return
    for n in range(min(max_part, remaining), 0, -1):
        for k in range(1, remaining // n + 1):
            for parts, mults in _raw_indices(remaining - n * k, n - 1):
                yield (n,) + parts, (k,) + mults


def _index_sort_key(idx: PartitionedIndex):
    # Parts descending-lex with end-of-sequence treated as -infinity
    # (so [2, 1] precedes [2]); ties broken by mults ascending.
    return tuple(-p for p in idx.parts) + (float("inf"),), idx.mults


# Entries the index memo (one per weighted sum d) keeps before it drops the
# least recently used.  A verify grid varies its last parameter fastest, so
# one row of values is enough for full reuse.
INDEX_CACHE_SIZE = 16

# Refined sums f(D, d1, k0) the refined-sum memo keeps before it drops the
# least recently used, base cases included.  A whole grid reaches 1,044 of
# them on verify thm2 --d1 1..10 --d2 1..10, 1,922 on --d1 1..14 and 5,196
# on --d1 1..24, and 595 on verify thm1 --d0 2..14 --d1 1..13, so 4096
# computes each value of all but the 1..24 grid once.  On the 1..24 grid the
# CLI's peak RSS was 27, 33 and 34 MB at 2048, 4096 and 8192 entries, in
# 6.7-7.4 s, within the host's noise (2-vCPU VM, Python 3.11).
REFINED_CACHE_SIZE = 4096


@lru_cache(maxsize=INDEX_CACHE_SIZE)
def _sorted_indices(d):
    """All PartitionedIndex values with weighted sum d, sorted, as a tuple."""
    return tuple(
        sorted((PartitionedIndex(p, m) for p, m in _raw_indices(d, d)), key=_index_sort_key)
    )


def enumerate_indices(d: int, k0: int | None = None):
    """All PartitionedIndex values with weighted sum d, and total
    multiplicity k0 when given, in the canonical deterministic order;
    d = 0 gives the empty index alone.

    Each d's sorted indices are built once (a bounded LRU memo); every
    call returns a new list, which the caller may change."""
    if d < 0:
        raise ValueError("d must be >= 0")
    found = _sorted_indices(d)
    if k0 is None:
        return list(found)
    return [idx for idx in found if idx.mult_sum() == k0]


def f_term(D: int, idx: PartitionedIndex) -> LaurentPoly:
    """One summand of the refined sum: the product over i of
    qbinom(D - 2*sum_{j<i} (n_j - n_i) k_j, k_i), which is ONE for the
    empty index; a factor of 1 is not multiplied in, and a factor of 0
    makes the term 0 before any multiply.

    The binomials use the generic-ratio (signed) extension so the refined
    sum matches its closed form for every positive D; on nonnegative tops
    this is the ordinary convention, which is all the theorem left-hand
    sides ever exercise."""
    total = ONE  # the empty product, before the first factor
    weighted = 0  # sum of n_j k_j over previous factors
    count = 0  # sum of k_j over previous factors
    for n, k in zip(idx.parts, idx.mults):
        factor = q_binomial_signed(D - 2 * weighted + 2 * n * count, k)
        # Laurent polynomials have no zero divisors: only a zero factor gives 0
        if factor.is_zero():
            return ZERO
        total = factor if total is ONE else total if factor is ONE else total * factor
        weighted += n * k
        count += k
    return total


def f_enumerated(spec: FSumSpec) -> LaurentPoly:
    """The refined sum f(D/2, d1, k0) by direct enumeration of indices.

    At d1 = 0 the one index is the empty one, of total multiplicity 0, so
    the sum is 1 when k0 = 0 and 0 otherwise; it is 0 when k0 > d1.
    """
    return sum((f_term(spec.D, idx) for idx in enumerate_indices(spec.d1, spec.k0)), ZERO)


def f_recursive(spec: FSumSpec) -> LaurentPoly:
    """The refined sum by the peel-off-the-smallest-part recursion:

        f(D, d1, k0) = sum_{k=1..k0} sum_{n=1..d1//k0}
                       f(D, d1 - n*k0, k0 - k) * qbinom(D - 2*d1 + 2*n*k0, k)

    with f(D, 0, 0) = 1, the empty partition; when exactly one of d1, k0
    is 0 the sums are empty and f is 0.  Every value on the way is
    memoized by _refined, a bounded LRU over (D, d1, k0), for later calls.
    """
    return _refined(spec.D, spec.d1, spec.k0)


@lru_cache(maxsize=REFINED_CACHE_SIZE)
def _refined(D, d1, k0):
    """f(D, d1, k0) by f_recursive's recursion, through this cache."""
    if d1 == 0 == k0:
        return ONE
    total = ZERO
    for k in range(1, k0 + 1):
        for n in range(1, d1 // k0 + 1):
            tail = _refined(D, d1 - n * k0, k0 - k)
            if tail.is_zero():
                continue
            binom = q_binomial_signed(D - 2 * d1 + 2 * n * k0, k)
            if binom.is_zero():
                continue
            # a 1 (the empty-product tail f(D, 0, 0) or qbinom(m, m)) needs no multiply
            total = total + (binom if tail is ONE else tail if binom is ONE else tail * binom)
    return total


def _summands(D, d, trailing):
    """The direct transcription: (idx, f_term(D, idx) * trailing[k]) in
    canonical index order.  Memoizes nothing."""
    for idx in enumerate_indices(d):
        binom = trailing.get(idx.mult_sum())
        if binom is not None:
            term = f_term(D, idx)
            # a trailing 1 (qbinom(n, 0) or qbinom(n, n)) needs no multiply
            yield idx, term if binom is ONE else term * binom


def _two_path_sum(D, d, trailing, where):
    """sum_k f(D, d, k) * trailing[k] over the nonzero trailing[k], each f
    by path (a), f_enumerated, and by path (b), f_recursive; raises
    ArithmeticError naming where if the two differ on any slice."""
    total = ZERO
    for k, binom in trailing.items():
        if binom.is_zero():
            continue
        spec = FSumSpec(D, d, k)
        refined = f_recursive(spec)
        if refined != f_enumerated(spec):
            raise ArithmeticError("internal disagreement in " + where)
        if refined.is_zero():
            continue
        total = total + (refined if binom is ONE else refined * binom)
    return total


def _theorem1(d0, d1):
    """Theorem 1's (D, d, trailing): D = 2*d0, d = d0 - d1 and
    trailing[d1 - k0] = qbinom(2*d1, k0) for k0 = 0..d1, so an index
    with sum k_i > d1 is left out.  Requires d0 > d1 >= 1."""
    if d1 < 1 or d0 <= d1:
        raise InvalidHypothesis("theorem 1 requires d0 > d1 >= 1")
    return 2 * d0, d0 - d1, {d1 - k0: q_binomial(2 * d1, k0) for k0 in range(d1 + 1)}


def _theorem2(d1, d2):
    """Theorem 2's (D, d, trailing): D = 2*d1 + d2, d = d1 and
    trailing[k] = qbinom(d2, k) for k = 1..d1, zero for k > d2 but still
    listed for explain's summands.  Requires d1 >= 1 and d2 >= 1."""
    if d1 < 1 or d2 < 1:
        raise InvalidHypothesis("theorem 2 requires d1 >= 1 and d2 >= 1")
    return 2 * d1 + d2, d1, {k: q_binomial(d2, k) for k in range(1, d1 + 1)}


def theorem1_terms(d0: int, d1: int):
    """The summands of the first theorem's left-hand side, by direct
    transcription: (label, term) in canonical index order, the label
    carrying k0 = d1 - sum k_i >= 0 and the partition with
    sum n_i k_i = d0 - d1.  Requires d0 > d1 >= 1 (checked on the first
    next())."""
    for idx, term in _summands(*_theorem1(d0, d1)):
        yield {"k0": d1 - idx.mult_sum(), **idx.to_json_obj()}, term


def theorem2_terms(d1: int, d2: int):
    """The summands of the second theorem's left-hand side, by direct
    transcription with the trailing qbinom(d2, sum k_i) factor: (label,
    term) in canonical index order.  Requires d1 >= 1 and d2 >= 1 (checked
    on the first next())."""
    for idx, term in _summands(*_theorem2(d1, d2)):
        yield idx.to_json_obj(), term


def prop3_lhs(D: int, d1: int, k0: int) -> LaurentPoly:
    """Proposition 3's left-hand side, the refined sum f(D/2, d1, k0), by
    _two_path_sum.  Requires d1 >= 0 and k0 >= 0."""
    return _two_path_sum(D, d1, {k0: ONE}, "prop3_lhs(%d, %d, %d)" % (D, d1, k0))


def theorem1_lhs(d0: int, d1: int) -> LaurentPoly:
    """The first theorem's left-hand side by _two_path_sum.  Requires
    d0 > d1 >= 1."""
    return _two_path_sum(*_theorem1(d0, d1), "theorem1_lhs(%d, %d)" % (d0, d1))


def theorem2_lhs(d1: int, d2: int) -> LaurentPoly:
    """The second theorem's left-hand side by _two_path_sum.  Requires
    d1 >= 1 and d2 >= 1."""
    return _two_path_sum(*_theorem2(d1, d2), "theorem2_lhs(%d, %d)" % (d1, d2))
