"""Tests for q-integers, q-Pochhammer symbols, and q-binomial coefficients."""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from qidentities import (
    DivisionByZero,
    LaurentPoly,
    NotDivisible,
    ONE,
    QFactored,
    RationalFunction,
    ZERO,
    q_binomial,
    q_binomial_factored,
    q_binomial_signed,
    q_int,
    q_pochhammer,
    qf_div,
    qf_expand,
    qf_expand_ratio,
    qf_mul,
    qf_to_rational,
)
from qidentities.qcombo import _product


def lp(terms):
    return LaurentPoly(terms)


# -- q-integers ----------------------------------------------------------------


def test_q_int_values():
    assert qf_expand(q_int(1)) == lp({1: 1, -1: -1})
    assert q_int(0).zero
    assert qf_expand(q_int(2)) == lp({2: 1, -2: -1})


def test_q_int_factored_form():
    v = q_int(3)
    assert (v.sign, v.x_power, v.factors) == (-1, -3, {6: 1})


@given(st.integers(min_value=-20, max_value=20))
def test_q_int_antisymmetric(alpha):
    assert qf_expand(q_int(-alpha)) == -qf_expand(q_int(alpha))


# -- q-Pochhammer ----------------------------------------------------------------


def test_pochhammer_values():
    v = q_pochhammer(2, 3)
    assert (v.sign, v.x_power, v.factors) == (1, 0, {2: 1, 4: 1, 6: 1})
    assert q_pochhammer(-17, 0) == QFactored()
    assert q_pochhammer(-4, 3).zero


@pytest.mark.parametrize("args, field", [
    ((1, 0.5, {2: 1}), "x_power"),
    ((1, 0, {2.7: 1}), "factor exponent"),
    ((1, 0, {2: 1.9}), "multiplicity"),
    ((1, 0.5, {2.7: 1.9}), "factor exponent"),
    ((1.5, 0, {}), "sign"),
])
def test_qfactored_refuses_non_integral_fields(args, field):
    # QFactored(1, 0.5, {2.7: 1.9}) would otherwise be (1, 0, {2: 1})
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        QFactored(*args)
    v = QFactored(-1.0, 2.0, {3.0: 2.0, 4: 0.0})
    assert v == (-1, 2, {3: 2})
    assert {type(n) for n in (v.sign, v.x_power, *v.factors, *v.factors.values())} == {int}


BUILDER_ARGS = [
    # (builder, a non-integral call, the argument it names, a call with a
    # float equal to an int)
    (q_int, (2.5,), "alpha", (4.0,)),
    (q_pochhammer, (2.5, 2), "t", (4.0, 2)),
    (q_pochhammer, (1, 2.5), "m", (1, 4.0)),
    (q_binomial_factored, (2.5, 1), "n", (4.0, 2)),
    (q_binomial_factored, (4, 2.5), "k", (6, 4.0)),
    (q_binomial, (-2.5, 1), "n", (4.0, 2)),
    (q_binomial, (4, 1.5), "k", (4, 2.0)),
    (q_binomial_signed, (2.5, 1), "n", (-4.0, 2)),
    (q_binomial_signed, (4, 1.5), "k", (4.0, 2)),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "builder, bad, field, good", BUILDER_ARGS,
    ids=["%s-%s" % (case[0].__name__, case[2]) for case in BUILDER_ARGS],
)
def test_q_symbol_builders_read_their_arguments_as_ints(builder, bad, field, good, warm):
    # read as given, q_int(0.5) would be a QFactored with x_power -0.5,
    # q_binomial(-2.5, 1) would be 0, and q_binomial_signed(4.0, 2) would
    # raise TypeError on a cold cache but give [4, 2] on a warm one
    exact = tuple(int(v) for v in good)
    if warm:
        builder(*[int(v) for v in bad])
        builder(*exact)
    with pytest.raises(ValueError, match="%s must be an integer, got" % field):
        builder(*bad)
    value = builder(*good)
    assert value == builder(*exact)
    if isinstance(value, QFactored):
        assert {type(n) for n in (value.sign, value.x_power, *value.factors)} == {int}


def test_pochhammer_negative_count():
    with pytest.raises(ValueError):
        q_pochhammer(2, -1)


@given(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=6)
)
def test_pochhammer_step(t, m):
    stepped = qf_mul(q_pochhammer(t, m), _product((t + 2 * m,)))
    assert stepped == q_pochhammer(t, m + 1)


# -- the one constructor, against the per-factor builders it replaced ------------


def ref_one_minus_x(e):
    """1 - x^e by the old three-branch normalization."""
    if e == 0:
        return QFactored(0)
    if e > 0:
        return QFactored(factors={e: 1})
    return QFactored(sign=-1, x_power=e, factors={-e: 1})


def ref_q_int(alpha):
    """The q-integer by the old recursion for negative alpha."""
    if alpha == 0:
        return QFactored(0)
    if alpha < 0:
        pos = ref_q_int(-alpha)
        return QFactored(-pos.sign, pos.x_power, pos.factors)
    return QFactored(sign=-1, x_power=-alpha, factors={2 * alpha: 1})


def ref_q_pochhammer(t, m):
    """(x^t; q)_m by the old loop, one factor at a time."""
    out = QFactored()
    for j in range(m):
        out = qf_mul(out, ref_one_minus_x(t + 2 * j))
        if out.zero:
            break
    return out


def ref_q_binomial_factored(n, k):
    """The q-binomial ratio by the old loop over pairs of q-integers."""
    if k < 0 or 0 <= n < k:
        return QFactored(0)
    out = QFactored()
    for i in range(k):
        out = qf_mul(out, ref_q_int(n - i))
        out = qf_div(out, ref_q_int(k - i))
    return out


def ref_pochhammer_vanishes(t, count):
    """The old arithmetic rule: t + 2j = 0 for some 0 <= j < count."""
    return t <= 0 and t % 2 == 0 and -t // 2 < count


@given(
    st.lists(st.integers(min_value=-12, max_value=12), max_size=8),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, -1]),
)
def test_product_matches_one_factor_values(exps, x_power, sign):
    expected = QFactored(sign, x_power)
    for e in exps:
        expected = qf_mul(expected, ref_one_minus_x(e))
    got = _product(exps, x_power, sign)
    assert got == expected
    assert all(e >= 1 and m >= 1 for e, m in got.factors.items())
    # and by value, as an explicit LaurentPoly product
    value = lp({x_power: sign})
    for e in exps:
        value = value * (ONE - lp({e: 1}))
    assert qf_to_rational(got) == RationalFunction(value)


@given(
    st.lists(st.integers(min_value=-12, max_value=12), max_size=6),
    st.lists(st.integers(min_value=-12, max_value=12), max_size=6),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, -1]),
)
@example([0], [0], 0, 1)
@example([0, 3], [5], 2, -1)
@example([4, -6, 3], [-6, 3, 4], -1, -1)
def test_product_with_denominator(exps, den, x_power, sign):
    if 0 in den:
        with pytest.raises(DivisionByZero):
            _product(exps, x_power, sign, den=den)
        return
    got = _product(exps, x_power, sign, den=den)
    assert got == qf_div(_product(exps, x_power, sign), _product(den))
    assert all(e >= 1 and m != 0 for e, m in got.factors.items())
    # and by value: cross-multiplied against the explicit LaurentPoly products
    num = lp({x_power: sign})
    for e in exps:
        num = num * (ONE - lp({e: 1}))
    den_value = ONE
    for e in den:
        den_value = den_value * (ONE - lp({e: 1}))
    assert qf_to_rational(got) == RationalFunction(num, den_value)


def test_builders_match_old_loops():
    for e in range(-12, 13):
        assert _product((e,)) == ref_one_minus_x(e)
    for alpha in range(-20, 21):
        assert q_int(alpha) == ref_q_int(alpha)
    for t in range(-8, 9):
        for m in range(0, 9):
            assert q_pochhammer(t, m) == ref_q_pochhammer(t, m)
    for n in range(-12, 15):
        for k in range(-1, 11):
            assert q_binomial_factored(n, k) == ref_q_binomial_factored(n, k)


def test_pochhammer_zero_matches_old_rule():
    for t in range(-20, 21):
        for n in range(0, 13):
            assert q_pochhammer(t, n).zero == ref_pochhammer_vanishes(t, n)


# -- factored arithmetic ----------------------------------------------------------


def test_qf_mul_div_group_laws():
    a = q_pochhammer(3, 4)
    assert qf_div(qf_mul(a, a), a) == a
    assert qf_mul(QFactored(0), a).zero
    assert qf_div(q_pochhammer(2, 3), q_pochhammer(2, 2)).factors == {6: 1}


def test_qf_div_by_zero():
    with pytest.raises(DivisionByZero):
        qf_div(QFactored(), QFactored(0))
    with pytest.raises(DivisionByZero):
        qf_div(q_pochhammer(3, 4), QFactored(0))


def test_qfactored_sign_must_be_one_minus_one_or_zero():
    with pytest.raises(ValueError):
        QFactored(2)


def test_zero_is_sign_zero_with_no_monomial_or_factors():
    # the value is a tuple of its fields, so it also equals the plain tuple
    assert QFactored(0, 5, {2: 1}) == QFactored(0) == (0, 0, {})
    a = q_pochhammer(3, 4)
    assert qf_mul(QFactored(0), a) == QFactored(0)
    assert qf_mul(a, QFactored(0)) == QFactored(0)
    assert qf_div(QFactored(0), a) == QFactored(0)


product_args = st.tuples(
    st.lists(st.integers(min_value=-12, max_value=12).filter(bool), max_size=6),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-12, max_value=12).filter(bool), max_size=6),
)


@given(product_args, product_args)
def test_qf_div_undoes_qf_mul(a_args, b_args):
    a, b = _product(*a_args), _product(*b_args)
    assert not a.zero and not b.zero
    assert qf_div(qf_mul(a, b), b) == a


def test_qf_expand_example():
    v = QFactored(sign=1, x_power=-3, factors={2: 1, 4: 1})
    oracle = lp({-3: 1}) * lp({0: 1, 2: -1}) * lp({0: 1, 4: -1})
    assert qf_expand(v) == oracle


def test_qf_expand_divides_out_negative_multiplicities():
    # (1 - x^4) / (1 - x^2) = 1 + x^2 = 1 + q
    assert qf_expand(QFactored(factors={4: 1, 2: -1})) == lp({0: 1, 2: 1})
    with pytest.raises(NotDivisible):
        qf_expand(QFactored(factors={2: -1}))
    assert qf_expand_ratio is qf_expand


def test_qf_to_rational():
    r = qf_to_rational(q_int(1))
    assert r == RationalFunction(lp({1: 1, -1: -1}))
    r = qf_to_rational(QFactored(factors={2: -1}))
    assert r.num == ONE and r.den == lp({0: 1, 2: -1})
    r = qf_to_rational(QFactored(0))
    assert r.num == ZERO and r.den == ONE


def test_qf_expand_ratio_requires_divisibility():
    from qidentities import NotDivisible

    with pytest.raises(NotDivisible):
        qf_expand_ratio(QFactored(factors={4: 1, 6: -1}))


def product_oracle(a):
    """Numerator and denominator of a nonzero a as explicit LaurentPoly
    products of 1 - x^e, independent of the expansion kernel."""
    num, den = lp({a.x_power: a.sign}), ONE
    for e, m in a.factors.items():
        for _ in range(abs(m)):
            if m > 0:
                num = num * lp({0: 1, e: -1})
            else:
                den = den * lp({0: 1, e: -1})
    return num, den


def exact_div_ratio(a):
    """The expansion by one general long division, as an oracle."""
    if a.zero:
        return ZERO
    num, den = product_oracle(a)
    return num.exact_div(den)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=4),
        max_size=5,
    ),
    st.sampled_from([1, -1]),
    st.integers(min_value=-12, max_value=6),
)
def test_qf_expand_matches_product(factors, sign, x_power):
    a = QFactored(sign=sign, x_power=x_power, factors=factors)
    num, den = product_oracle(a)
    assert den == ONE
    assert qf_expand(a) == num


def test_qfactored_is_unhashable():
    # its factors dict is mutable, and nothing hashes a factored value
    with pytest.raises(TypeError):
        hash(q_int(1))


def test_qf_expand_big_coefficients():
    got = qf_expand(QFactored(factors={1: 80}))
    assert got == lp({i: (-1) ** i * math.comb(80, i) for i in range(81)})
    assert max(got.terms.values()) > 2**64


def test_qf_expand_ratio_matches_exact_div_on_q_binomials():
    for n in range(0, 15):
        for k in range(0, n + 1):
            a = q_binomial_factored(n, k)
            assert qf_expand_ratio(a) == exact_div_ratio(a)
    for n in range(-9, 0):
        for k in range(0, 7):
            a = q_binomial_factored(n, k)
            assert qf_expand_ratio(a) == exact_div_ratio(a)


def test_qf_expand_ratio_strided_division_cases():
    # x^3 (1 - x^6) / (1 - x^2) = x^3 (1 + x^2 + x^4), with sign
    a = QFactored(sign=-1, x_power=3, factors={6: 1, 2: -1})
    assert qf_expand_ratio(a) == lp({3: -1, 5: -1, 7: -1})
    # denominator wider than the numerator
    with pytest.raises(NotDivisible):
        qf_expand_ratio(QFactored(factors={2: 1, 6: -1}))
    with pytest.raises(NotDivisible):
        qf_expand_ratio(QFactored(factors={3: -1}))
    # repeated denominator factor: (1 - x^4)^2 / (1 - x^2)^2 = (1 + x^2)^2
    a = QFactored(factors={4: 2, 2: -2})
    assert qf_expand_ratio(a) == lp({0: 1, 2: 2, 4: 1})
    with pytest.raises(NotDivisible):
        qf_expand_ratio(QFactored(factors={4: 1, 2: -2}))
    assert qf_expand_ratio(QFactored(0)) == ZERO


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=-2, max_value=3).filter(bool),
        max_size=5,
    ),
    st.sampled_from([1, -1]),
    st.integers(min_value=-6, max_value=6),
)
def test_qf_expand_ratio_agrees_with_exact_div(factors, sign, x_power):
    a = QFactored(sign=sign, x_power=x_power, factors=factors)
    try:
        expected = exact_div_ratio(a)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            qf_expand_ratio(a)
    else:
        assert qf_expand_ratio(a) == expected


# -- qf_expand's memo ----------------------------------------------------------


@example(({2: -1}, 1, 0))
@example(({4: 1, 2: -1}, -1, 3))
@example(({3: 2}, 0, 5))
@given(st.tuples(
    st.dictionaries(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=-3, max_value=4).filter(bool),
        max_size=5,
    ),
    st.sampled_from([1, -1, 0]),
    st.integers(min_value=-12, max_value=6),
))
def test_qf_expand_memo_matches_the_pass_cold_and_warm(args):
    from qidentities import qcombo

    factors, sign, x_power = args
    a = QFactored(sign, x_power, factors)
    # the same value, its factor dict filled in another order
    b = QFactored(sign, x_power, dict(reversed(list(factors.items()))))
    qcombo._expanded.cache_clear()
    try:
        expected = qcombo._expand(a.sign, a.x_power, a.factors.items(), ONE)
    except NotDivisible:
        # raised again on every call, never cached
        for value in (a, b):
            with pytest.raises(NotDivisible):
                qf_expand(value)
        assert qcombo._expanded.cache_info().currsize == 0
        return
    cold = qf_expand(a)
    warm = qf_expand(b)
    assert cold == expected and warm is cold
    info = qcombo._expanded.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # a start other than ONE bypasses the memo
    start = lp({1: 2, 3: -1})
    assert qf_expand(a, start) == expected * start
    assert qcombo._expanded.cache_info().misses == 1


def test_qf_expand_memo_is_bounded():
    from qidentities import qcombo

    bound = qcombo.QF_EXPAND_CACHE_SIZE
    assert qcombo._expanded.cache_info().maxsize == bound
    # a sweep over more distinct values than the memo holds
    for p in range(bound + 20):
        assert qf_expand(QFactored(-1, p, {2: 1})) == lp({p: -1, p + 2: 1})
    info = qcombo._expanded.cache_info()
    assert (info.misses, info.currsize) == (bound + 20, bound)
    # the least recently used values were dropped, and expand again
    assert qf_expand(QFactored(-1, 0, {2: 1})) == lp({0: -1, 2: 1})
    assert qcombo._expanded.cache_info().misses == bound + 21


@example(([3], 1, 1, [3]), ([5], 0, -1, []), False)
@example(([2, -2], 0, 1, [4]), ([4], 2, 1, [2]), True)
@given(product_args, product_args, st.booleans())
def test_built_values_equal_the_validated_constructor(a_args, b_args, zero):
    # _product and qf_mul skip QFactored's validation; what they build must
    # still be what it would build: no zero multiplicity, zero as (0, 0, {})
    exps, x_power, sign, den = a_args
    a = _product([0] * zero + exps, x_power, sign, den)
    b = _product(*b_args)
    quotient = qf_div(b, a) if not a.zero else b
    for value in (a, b, qf_mul(a, b), qf_mul(b, a), qf_mul(a, quotient)):
        assert type(value) is QFactored
        assert value == QFactored(*value)
        assert 0 not in value.factors.values()
        if value.zero:
            assert value == (0, 0, {})
    if not a.zero:
        # factors of a cancel in a * (b / a)
        assert qf_mul(a, quotient) == b


# -- q-binomial coefficients ---------------------------------------------------


def test_q_binomial_values():
    assert q_binomial(3, 1) == lp({2: 1, 0: 1, -2: 1})
    assert q_binomial(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binomial(4, 2).coeff_sum() == 6
    assert q_binomial(3, 5) == ZERO
    assert q_binomial(5, 0) == ONE
    assert q_binomial(-2, 1) == ZERO
    assert q_binomial(4, -1) == ZERO


def test_q_binomial_factored_matches_expansion():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qf_expand_ratio(q_binomial_factored(n, k)) == q_binomial(n, k)
    assert q_binomial_factored(3, 5).zero


def test_palindromic_and_symmetric():
    for n in range(0, 21):
        for k in range(0, n + 1):
            b = q_binomial(n, k)
            assert b.reverse() == b
            assert b == q_binomial(n, n - k)


def test_coeff_sum_is_ordinary_binomial():
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert q_binomial(n, k).coeff_sum() == math.comb(n, k)


def test_pascal_type_recurrence():
    for n in range(2, 16):
        for k in range(1, n):
            lhs = q_binomial(n, k)
            rhs = LaurentPoly.monomial(1, k) * q_binomial(n - 1, k) + (
                LaurentPoly.monomial(1, k - n) * q_binomial(n - 1, k - 1)
            )
            assert lhs == rhs


# -- generic-ratio (signed) extension -----------------------------------------


def test_q_binomial_caches_are_bounded():
    from qidentities import qcombo

    bound = qcombo.Q_BINOMIAL_CACHE_SIZE
    # a sweep over more distinct arguments than the cache holds
    sweep = range(-bound // 2 - 10, bound // 2 + 10)
    # Each call misses once, on its own new key.  q_binomial_signed also
    # caches the row entries its steps look up.  Every k = 2 call walks its
    # row up from a new [n, 1], except at n = -1 and n = 2 (twos - 2 keys):
    # [-1, 2] reflects to [2, 2], which is [2, 0] (2 keys), so [2, 2] is a
    # hit later (-1).  [1, 1] is [1, 0] (1 key).  In all: twos more misses.
    twos = sum(1 for n in sweep if n % 3 == 2)
    misses = {q_binomial: len(sweep), q_binomial_signed: len(sweep) + twos}
    for cached in (q_binomial, q_binomial_signed):
        assert cached.cache_info().maxsize == bound
        cached.cache_clear()
        for n in sweep:
            cached(n, n % 3)
        info = cached.cache_info()
        assert info.misses == misses[cached] and info.currsize <= bound
    assert q_binomial(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_signed_agrees_on_nonnegative_top():
    for n in range(0, 12):
        for k in range(0, n + 3):
            assert q_binomial_signed(n, k) == q_binomial(n, k)
    assert q_binomial_signed(5, -1) == ZERO


def test_signed_negative_top_reflection():
    # generic ratio at n < 0 equals (-1)^k times a positive-top value
    for n in range(-8, 0):
        for k in range(0, 6):
            expected = LaurentPoly.monomial((-1) ** k) * q_binomial(k - n - 1, k)
            assert q_binomial_signed(n, k) == expected


def test_signed_palindromic():
    for n in range(-8, 0):
        for k in range(0, 6):
            b = q_binomial_signed(n, k)
            assert b.reverse() == b


def test_signed_factored_matches():
    for n in range(-6, 7):
        for k in range(0, 5):
            got = q_binomial_factored(n, k)
            if got.zero:
                assert q_binomial_signed(n, k) == ZERO
            else:
                assert qf_expand_ratio(got) == q_binomial_signed(n, k)


@example(calls=[(3, 5), (0, 1), (-1, 2), (-2, 1), (-40, 20), (60, 20), (60, 40), (59, 19)])
@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 60), st.integers(-2, 20)), min_size=1, max_size=6))
def test_row_steps_match_factored_oracle(calls):
    # from cold caches; a later call may find part of its row cached
    q_binomial_signed.cache_clear()
    for n, k in calls:
        assert q_binomial_signed(n, k) == qf_expand_ratio(q_binomial_factored(n, k))


def test_long_rows_take_the_short_side():
    # [-5, 1500] = [1504, 1500] = [1504, 4] and [1501, 1500] = [1501, 1]:
    # four and one row steps, not 1500
    assert q_binomial_signed(-5, 1500) == qf_expand_ratio(q_binomial_factored(1504, 4))
    assert q_binomial_signed(-5, 1501) == -qf_expand_ratio(q_binomial_factored(1505, 4))
    assert q_binomial_signed(1501, 1500) == lp({e: 1 for e in range(-1500, 1501, 2)})


def test_factored_q_binomial_takes_the_short_side():
    # past sys.maxsize on the long side, one or two q-integers on the short
    huge = 10**20
    assert q_binomial_factored(huge, huge - 1) == q_binomial_factored(huge, 1)
    # [-3, huge] = (-1)^huge [huge + 2, huge] = [huge + 2, 2]
    got = q_binomial_factored(-3, huge)
    assert got == q_binomial_factored(huge + 2, 2)
    assert sorted(got.factors.values()) == [-1, -1, 1, 1]


def test_cold_row_is_built_without_recursion():
    # 45 row steps under a recursion limit only a few frames above this one
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        value = q_binomial_signed(90, 45)
    finally:
        sys.setrecursionlimit(limit)
    assert value == qf_expand_ratio(q_binomial_factored(90, 45))
