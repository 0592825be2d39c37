"""Arithmetic-core tests: exact Laurent polynomials and unreduced fractions."""

import pytest
from hypothesis import given, settings, strategies as st

from qidentities import (
    DivisionByZero,
    LaurentPoly,
    NotDivisible,
    ONE,
    RationalFunction,
    ZERO,
    rf_eq,
)
from qidentities import laurent
from qidentities.laurent import KRONECKER_MIN_PRODUCTS, _kronecker_mul


def lp(terms):
    return LaurentPoly(terms)


def convolve(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Independent product oracle: accumulate over explicit term lists."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return LaurentPoly(out)


polys = st.dictionaries(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-9, max_value=9),
    max_size=8,
).map(LaurentPoly)

nonzero_polys = polys.filter(lambda p: not p.is_zero())


# -- construction and basics -------------------------------------------------


def test_monomial_basics():
    assert LaurentPoly.monomial(1, 0) == ONE
    assert LaurentPoly.monomial(0, 5) == ZERO
    assert LaurentPoly.monomial(-3, -2) == lp({-2: -3})


def test_zero_coefficients_dropped():
    assert lp({3: 0, 1: 2}) == lp({1: 2})
    assert lp({0: 0}).is_zero()


def test_add_cancellation():
    assert lp({1: 1, 0: 1}) + lp({1: -1, 0: 1}) == lp({0: 2})
    p = lp({5: 3, -2: 1})
    assert p + ZERO == p
    assert lp({1: 1, -1: -1}) + lp({-1: 1, 1: -1}) == ZERO


def test_mul_fixed_cases():
    assert lp({1: 1, -1: -1}) * lp({1: 1, -1: 1}) == lp({2: 1, -2: -1})
    p = lp({4: 2, 0: -1})
    assert p * ONE == p
    # (x^2 + 1 + x^-2)(x - x^-1) telescopes
    a = lp({2: 1, 0: 1, -2: 1})
    b = lp({1: 1, -1: -1})
    expected = lp({3: 1, -3: -1})
    assert a * b == expected
    assert convolve(a, b) == expected


def test_exact_div_fixed_cases():
    a = lp({4: 1, -4: -1})
    b = lp({2: 1, -2: -1})
    q = a.exact_div(b)
    assert q == lp({2: 1, -2: 1})
    assert q * b == a
    p = lp({7: 5, 0: 2})
    assert p.exact_div(ONE) == p
    with pytest.raises(NotDivisible):
        lp({2: 1, 0: 1}).exact_div(lp({1: 1, 0: -1}))
    with pytest.raises(DivisionByZero):
        ONE.exact_div(ZERO)


def test_exact_div_coefficient_remainder():
    with pytest.raises(NotDivisible):
        lp({0: 3}).exact_div(lp({0: 2}))


def test_reverse_fixed_cases():
    assert lp({3: 1, 0: 2}).reverse() == lp({-3: 1, 0: 2})
    bracket = lp({1: 1, -1: -1})
    assert bracket.reverse() == -bracket


def test_coeff_sum_fixed_cases():
    assert lp({3: 1, 1: 1, -1: 1, -3: 1}).coeff_sum() == 4
    assert ZERO.coeff_sum() == 0


def test_degree_valuation():
    p = lp({3: 1, -2: 5})
    assert p.degree() == 3
    assert p.valuation() == -2
    with pytest.raises(ValueError):
        ZERO.degree()
    with pytest.raises(ValueError):
        ZERO.valuation()


# -- rendering and serialization ---------------------------------------------


def test_render_plain():
    assert lp({3: 1, -1: 1}).render("plain") == "q^(3/2) + q^(-1/2)"
    assert ZERO.render("plain") == "0"
    assert lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1}).render("plain") == (
        "q^2 + q + 2 + q^(-1) + q^(-2)"
    )
    assert lp({2: -2, 0: 3}).render("plain") == "-2*q + 3"


def test_render_json():
    assert lp({2: 1, 0: 2, -2: 1}).render("json") == '[[2,"1"],[0,"2"],[-2,"1"]]'
    assert ZERO.render("json") == "[]"


def test_render_latex():
    assert lp({3: 1, 2: 2}).render("latex") == "q^{3/2} + 2q"


def test_render_unknown_style():
    with pytest.raises(ValueError):
        ONE.render("html")


def test_pairs_roundtrip():
    p = lp({5: 12345678901234567890, -3: -7})
    assert p.to_pairs() == [[5, "12345678901234567890"], [-3, "-7"]]
    assert LaurentPoly.from_pairs(p.to_pairs()) == p


# -- ring laws (property-based) -----------------------------------------------


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(polys, polys)
def test_mul_matches_oracle(a, b):
    assert a * b == convolve(a, b)


# -- Kronecker-substitution multiply ------------------------------------------

small_coeffs = st.integers(min_value=-9, max_value=9)
wide_coeffs = st.one_of(
    st.integers(min_value=2**64, max_value=2**100),
    st.integers(min_value=-(2**100), max_value=-(2**64)),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def operand(draw, size, spread, coeffs):
    """A LaurentPoly with exactly `size` terms and exponents in a window of
    `spread` (>= size) starting at a possibly negative exponent."""
    low = draw(st.integers(min_value=-60, max_value=60))
    exps = draw(
        st.lists(
            st.integers(min_value=low, max_value=low + spread),
            min_size=size, max_size=size, unique=True,
        )
    )
    cs = draw(st.lists(coeffs.filter(bool), min_size=size, max_size=size))
    return LaurentPoly(dict(zip(exps, cs)))


# term counts whose product sits just below or at/above the threshold
threshold_sizes = st.sampled_from(
    [(15, 17), (16, 16), (16, 17), (8, 31), (8, 32), (3, 85), (3, 86), (1, 255), (1, 256)]
)


def operand_pair(coeffs, spread_factor=2):
    return threshold_sizes.flatmap(
        lambda sizes: st.tuples(
            operand(sizes[0], spread_factor * sizes[0], coeffs),
            operand(sizes[1], spread_factor * sizes[1], coeffs),
        )
    )


def check_product(a, b):
    expected = convolve(a, b)
    assert a * b == expected
    assert b * a == expected
    kron = _kronecker_mul(a.terms, b.terms)
    assert 0 not in kron.values()
    assert LaurentPoly(kron) == expected


def test_kronecker_selection(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(len(a) * len(b))
        return _kronecker_mul(a, b)

    monkeypatch.setattr(laurent, "_kronecker_mul", spy)

    def alternating(lo, hi, step=1):
        return lp({e: (e + 99) * (1 if e % 2 else -1) for e in range(lo, hi, step)})

    a15, a16, b17 = alternating(-8, 7), alternating(-8, 8), alternating(0, 17)
    assert a15 * b17 == convolve(a15, b17)
    assert calls == []
    assert a16 * a16 == convolve(a16, a16)
    assert calls == [KRONECKER_MIN_PRODUCTS]
    # same term count, but the product span exceeds half the term products
    sparse = alternating(0, 160, 10)
    assert sparse * sparse == convolve(sparse, sparse)
    assert calls == [KRONECKER_MIN_PRODUCTS]


@settings(max_examples=50, deadline=None)
@given(operand_pair(small_coeffs))
def test_kronecker_matches_schoolbook_near_threshold(pair):
    check_product(*pair)


@settings(max_examples=40, deadline=None)
@given(operand_pair(wide_coeffs))
def test_kronecker_wide_coefficients(pair):
    check_product(*pair)


@settings(max_examples=30, deadline=None)
@given(operand_pair(st.one_of(small_coeffs, wide_coeffs), spread_factor=1))
def test_kronecker_dense_mixed_widths(pair):
    check_product(*pair)


@settings(max_examples=30, deadline=None)
@given(
    operand(20, 4000, st.integers(min_value=-(2**40), max_value=2**40)),
    operand(20, 4000, small_coeffs),
)
def test_kronecker_sparse_large_gaps(a, b):
    check_product(a, b)


@settings(max_examples=30, deadline=None)
@given(
    operand(24, 30, small_coeffs),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=12, max_value=40),
)
def test_kronecker_cancellation(c, e, n):
    # c * (1 + x^e + ... + x^((n-1)e)) * (1 - x^e) telescopes to
    # c * (1 - x^(ne)): the interior of the product cancels to zero
    geometric = lp({e * i: 1 for i in range(n)})
    f = c * geometric
    g = lp({0: 1, e: -1})
    check_product(f, g * lp({0: 1, 1: 1}))
    assert f * g == c * lp({0: 1, e * n: -1})
    # a product and its negation cancel to the canonical zero
    h = f * f
    assert h + (-f) * f == ZERO
    assert (h + (-f) * f).terms == {}
    assert f * ZERO == ZERO and ZERO * f == ZERO


@given(polys, nonzero_polys)
def test_exact_div_roundtrip(p, b):
    a = p * b
    assert a.exact_div(b) == p


@given(polys, polys)
def test_reverse_homomorphism(a, b):
    assert (a * b).reverse() == a.reverse() * b.reverse()
    assert (a + b).reverse() == a.reverse() + b.reverse()
    assert a.reverse().reverse() == a


@given(polys, polys)
def test_coeff_sum_homomorphism(a, b):
    assert (a + b).coeff_sum() == a.coeff_sum() + b.coeff_sum()
    assert (a * b).coeff_sum() == a.coeff_sum() * b.coeff_sum()


# -- rational functions --------------------------------------------------------


def test_rf_eq_fixed_cases():
    x2m1 = lp({2: 1, 0: -1})
    xm1 = lp({1: 1, 0: -1})
    xp1 = lp({1: 1, 0: 1})
    assert rf_eq(RationalFunction(x2m1, xm1), RationalFunction(xp1))
    p = lp({4: 3, -1: 2})
    assert rf_eq(RationalFunction(p), RationalFunction(p))
    assert not rf_eq(RationalFunction(ONE, xm1), RationalFunction(ONE, xp1))


def test_rf_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(ONE, ZERO)


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_rf_add_mul_consistent(an, ad, bn, bd):
    a = RationalFunction(an, ad)
    b = RationalFunction(bn, bd)
    s = a + b
    assert s.num == an * bd + bn * ad
    assert s.den == ad * bd
    p = a * b
    assert p.num == an * bn and p.den == ad * bd


def test_rf_json_form():
    r = RationalFunction(lp({1: 1}), lp({0: 2}))
    assert r.to_json_obj() == {"num": [[1, "1"]], "den": [[0, "2"]]}
