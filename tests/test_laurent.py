"""Arithmetic-core tests: exact Laurent polynomials and unreduced fractions."""

import json
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qidentities import (
    DivisionByZero,
    LaurentPoly,
    NotDivisible,
    ONE,
    RationalFunction,
    ZERO,
)
from qidentities import laurent
from qidentities.laurent import KRONECKER_MIN_PRODUCTS, sum_of_products


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


def assert_canonical(p):
    """The dense list starts and ends with a nonzero coefficient, one slot
    per exponent of the span; zero is the empty list at valuation 0."""
    c = p._coeffs
    if not c:
        assert p._val == 0 and p.terms == {} and p.is_zero()
        return
    assert c[0] and c[-1]
    assert p.valuation() == min(p.terms) and p.degree() == max(p.terms)
    assert len(c) == p.degree() - p.valuation() + 1
    assert p.terms == {p.valuation() + i: x for i, x in enumerate(c) if x}


# -- construction and basics -------------------------------------------------


def test_monomial_basics():
    assert LaurentPoly.monomial(1, 0) == ONE
    assert LaurentPoly.monomial(0, 5) == ZERO
    assert LaurentPoly.monomial(-3, -2) == lp({-2: -3})


def test_zero_coefficients_dropped():
    assert lp({3: 0, 1: 2}) == lp({1: 2})
    assert lp({0: 0}).is_zero()


@pytest.mark.parametrize("exponent", [0.5, -2.5, "1", None, float("inf")])
def test_constructor_refuses_non_integral_exponents(exponent):
    # an exponent must equal an int: 0.5 is not truncated to 0
    with pytest.raises(ValueError, match="exponent must be an integer"):
        LaurentPoly({exponent: 1, 3: 2})
    # one that equals an int is that int
    p = LaurentPoly({2.0: 5, 3: 1})
    assert p == lp({2: 5, 3: 1}) and type(p.valuation()) is int


def test_add_cancellation():
    assert lp({1: 1, 0: 1}) + lp({1: -1, 0: 1}) == lp({0: 2})
    p = lp({5: 3, -2: 1})
    assert p + ZERO == p
    assert lp({1: 1, -1: -1}) + lp({-1: 1, 1: -1}) == ZERO


@pytest.mark.parametrize("a, b, expected", [
    # the two lowest terms cancel; so does an interior one
    ({-3: 1, -2: 2, 0: 5, 4: 1}, {-3: -1, -2: -2, 0: -5}, {4: 1}),
    # the two highest terms cancel
    ({-1: 7, 2: 3, 6: 2, 7: 1}, {6: -2, 7: -1}, {-1: 7, 2: 3}),
    # both ends cancel, from operands of different spans
    ({-2: 1, 0: 4, 3: 1}, {-2: -1, 1: 1, 3: -1}, {0: 4, 1: 1}),
    # everything cancels
    ({-2: 1, 0: 4, 3: 1}, {-2: -1, 0: -4, 3: -1}, {}),
    # disjoint spans leave a gap of zeros inside
    ({-5: 2}, {5: 3}, {-5: 2, 5: 3}),
], ids=["low-end", "high-end", "both-ends", "to-zero", "gap"])
def test_add_trims_both_ends(a, b, expected):
    for s in (lp(a) + lp(b), lp(b) + lp(a)):
        assert s == lp(expected)
        assert_canonical(s)


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
    assert lp({-7: 2, -4: 1}).reverse() == lp({7: 2, 4: 1})
    assert ZERO.reverse() == ZERO


def test_exact_div_dense_cases():
    # a quotient with interior zeros: (1 + x^3)(2 - x) / (2 - x)
    b = lp({0: 2, 1: -1})
    q = lp({0: 1, 3: 1})
    assert (q * b).exact_div(b) == q
    assert_canonical((q * b).exact_div(b))
    # a dividend shorter than the divisor has no quotient
    with pytest.raises(NotDivisible, match="no exact quotient"):
        lp({0: 1}).exact_div(lp({0: 1, 2: 1}))
    # divisible down to the last step, then a remainder below it
    with pytest.raises(NotDivisible, match="no exact quotient"):
        lp({0: 1, 1: 1, 2: 1}).exact_div(lp({0: 1, 1: 1}))
    with pytest.raises(NotDivisible, match="leading coefficient not divisible"):
        lp({0: 1, 2: 3}).exact_div(lp({0: 1, 1: 2}))


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


@given(polys)
def test_to_pairs_decreasing_nonzero(p):
    pairs = p.to_pairs()
    assert [e for e, _ in pairs] == sorted(p.terms, reverse=True)
    assert {e: int(c) for e, c in pairs} == p.terms
    assert "0" not in [c for _, c in pairs]


def test_pairs_roundtrip():
    p = lp({5: 12345678901234567890, -3: -7})
    assert p.to_pairs() == [[5, "12345678901234567890"], [-3, "-7"]]


# coefficients on both sides of the 64-bit boundaries, and far past them
json_coeffs = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1]).flatmap(
        lambda c: st.sampled_from([c, -c])
    ),
    st.integers(-(2**200), 2**200),
)
# zero, one term anywhere, and sparse values over a wide span
json_polys = st.one_of(
    st.just(ZERO),
    st.builds(LaurentPoly.monomial, json_coeffs, st.integers(-(10**9), 10**9)),
    st.dictionaries(st.integers(-500, 500), json_coeffs, max_size=12).map(LaurentPoly),
)


@given(json_polys)
def test_to_json_is_the_compact_dump_of_to_pairs(p):
    assert p.to_json() == json.dumps(p.to_pairs(), separators=(",", ":"))
    assert p.render("json") == p.to_json()


# -- ring laws (property-based) -----------------------------------------------


@given(polys, polys)
def test_results_are_canonical(a, b):
    for p in (a, b, a + b, a - b, a * b, -a, a.reverse(), a + (-a), a * ZERO):
        assert_canonical(p)
    if not b.is_zero():
        assert_canonical((a * b).exact_div(b))


@given(polys, st.dictionaries(st.integers(-10, 10), st.just(0), max_size=4))
def test_eq_and_hash_follow_terms(a, zeros):
    # the same terms, built with explicit zero coefficients and in another order
    same = LaurentPoly({**zeros, **dict(reversed(list(a.terms.items())))})
    assert same == a and hash(same) == hash(a)
    assert same._coeffs == a._coeffs
    other = a + LaurentPoly.monomial(1, 11)
    assert other != a and other.terms != a.terms


def test_one_term_product_leaves_operands_unchanged():
    # a product by a one-term operand may share the other's list; later
    # arithmetic on the product must not change either operand
    p = lp({-3: 4, -1: 0, 2: -5})
    before = p.terms
    for r in (ONE * p, p * ONE, lp({7: -1}) * p, lp({-2: 3}) * p):
        s = r + r
        n = -r
        assert p.terms == before
        assert s == convolve(r, lp({0: 2})) and n + r == ZERO
    assert (ONE * p).terms == before
    assert (lp({7: -1}) * p).terms == {e + 7: -c for e, c in before.items()}


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


def cold(p):
    """An equal value whose Kronecker memo is empty."""
    return LaurentPoly(p.terms)


def check_product(a, b):
    # the first product packs both operands, the later ones reuse the packs
    a, b = cold(a), cold(b)
    expected = convolve(a, b)
    assert a * b == expected
    assert b * a == expected
    kron = sum_of_products([(a, b)])
    # canonical: one slot per exponent of the span, nonzero at both ends
    assert kron._val == a.valuation() + b.valuation()
    assert len(kron._coeffs) == a.degree() - a.valuation() + b.degree() - b.valuation() + 1
    assert kron._coeffs[0] and kron._coeffs[-1]
    assert kron == expected


def test_kronecker_selection(monkeypatch):
    calls = []

    def spy(terms):
        # a product is one term of its two operands
        (p, q), = terms
        a, b = p._coeffs, q._coeffs
        calls.append((len(a) - a.count(0)) * (len(b) - b.count(0)))
        return sum_of_products(terms)

    monkeypatch.setattr(laurent, "sum_of_products", spy)

    def alternating(lo, hi, step=1):
        return lp({e: (e + 99) * (1 if e % 2 else -1) for e in range(lo, hi, step)})

    a15, a16, b17 = alternating(-8, 7), alternating(-8, 8), alternating(0, 17)
    assert a15 * b17 == convolve(a15, b17)
    assert calls == []
    assert a16 * a16 == convolve(a16, a16)
    assert calls == [KRONECKER_MIN_PRODUCTS]
    assert a16 * b17 == convolve(a16, b17)
    assert calls == [KRONECKER_MIN_PRODUCTS, 16 * 17]
    # each operand's memo holds its own nonzero count and largest magnitude
    assert a16._kron[3:] == (16, 106) and b17._kron[3:] == (17, 115)
    # same term count, but the product span exceeds half the term products
    sparse = alternating(0, 160, 10)
    assert sparse * sparse == convolve(sparse, sparse)
    assert calls == [KRONECKER_MIN_PRODUCTS, 16 * 17]


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_kronecker_slot_width_boundaries(monkeypatch, k):
    # 32 x 32 equal coefficients c: the middle product coefficient is
    # 32 c^2, exactly the bound.  The largest c with 32 c^2 < 2^(8k-1)
    # reads back from biased k-byte slots with the middle slot near its
    # top; c + 1 needs the next width (9 bytes: the path beyond machine
    # words).  Both fit unsigned k-byte slots, which serve the product of
    # two nonnegative operands.
    packed = spy_packing(monkeypatch)
    top = 1 << (8 * k - 1)
    c = isqrt((top - 1) // 32)
    for coeff, width in ((c, k), (c + 1, {1: 2, 2: 4, 4: 8, 8: 9}[k])):
        assert (32 * coeff * coeff < top) is (width == k)
        assert 32 * coeff * coeff < 2 * top
        a = lp({e: coeff for e in range(-40, -8)})
        b = lp({e: coeff for e in range(5, 37)})
        alternating = lp({e: coeff * (-1) ** e for e in range(5, 37)})
        packed.clear()
        check_product(a, b)
        assert set(packed) == {("unsigned", k)}
        # a factor with a negative coefficient: biased slots, one bit wider
        for other in (-b, alternating):
            packed.clear()
            check_product(a, other)
            assert set(packed) == {("unsigned", width), ("signed", width)}
        assert max((a * b).terms.values()) == 32 * coeff * coeff
        assert min((a * -b).terms.values()) == -32 * coeff * coeff


def memo_keys(p):
    """The (slot width, stride) layouts p's Kronecker memo holds packs for."""
    return set(p._kron[2])


def spy_packing(monkeypatch):
    """Record ("signed" or "unsigned", slot width) per operand pack the
    Kronecker kernel builds: two's complement for an operand with a
    negative coefficient, unsigned for any other.  The kernel packs only
    for a layout the operand's memo lacks, so a reused pack is not
    recorded."""
    packed = []
    pack = laurent._packed

    def spy(p, k, stride):
        packed.append(("signed" if min(p._coeffs) < 0 else "unsigned", k))
        return pack(p, k, stride)

    monkeypatch.setattr(laurent, "_packed", spy)
    return packed


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_unsigned_slot_width_boundaries(monkeypatch, k):
    # bound = max|a| * max|b| * min(nonzeros).  17 divides 2^(8k) - 1
    # (2^8 = 1 mod 17), so 17 ones times 17 copies of (2^(8k) - 1) / 17
    # give a middle coefficient of exactly 2^(8k) - 1, the top of a k-byte
    # unsigned slot; 16 ones times 16 copies of 2^(8k - 4) give 2^(8k),
    # which needs the next width (9 bytes: the path beyond machine words).
    # A nonpositive operand reads back from biased slots, one bit wider:
    # the next width at both bounds.
    packed = spy_packing(monkeypatch)
    top = 1 << (8 * k)
    wider = {1: 2, 2: 4, 4: 8, 8: 9}[k]
    cases = ((17, (top - 1) // 17, top - 1, k), (16, top // 16, top, wider))
    for size, coeff, bound, width in cases:
        ones = lp({e: 1 for e in range(-30, -30 + size)})
        b = lp({e: coeff for e in range(7, 7 + size)})
        for x, y, expected in (
            (ones, b, {("unsigned", width)}),
            (-ones, b, {("signed", wider), ("unsigned", wider)}),
            (ones, -b, {("unsigned", wider), ("signed", wider)}),
            (-ones, -b, {("signed", wider)}),
        ):
            packed.clear()
            check_product(x, y)
            assert set(packed) == expected
        assert max((ones * b).terms.values()) == bound
        assert min((ones * -b).terms.values()) == -bound
        assert max((-ones * -b).terms.values()) == bound


def test_unsigned_slots_wider_than_machine_words(monkeypatch):
    packed = spy_packing(monkeypatch)
    # 20 terms each, interior zeros in a, b nonpositive; a 184-bit bound
    # fills 23 unsigned bytes, and biased slots need a 24th
    a = lp({e: 2**100 + e for e in range(0, 40, 2)})
    b = lp({e: -(3**50) - e for e in range(-5, 15)})
    bits = ((2**100 + 38) * (3**50 + 14) * 20).bit_length()
    width, biased = (bits + 7) // 8, (bits + 8) // 8
    assert 8 < width < biased
    for x, y, expected in (
        (a, -b, {("unsigned", width)}),
        (a, b, {("unsigned", biased), ("signed", biased)}),
        (-a, -b, {("signed", biased), ("unsigned", biased)}),
        (-a, b, {("signed", biased)}),
    ):
        packed.clear()
        check_product(x, y)
        assert set(packed) == expected


def test_sign_uniform_operands_skip_pack(monkeypatch):
    # each operand is packed by its own sign: a nonnegative one in unsigned
    # slots, a nonpositive or mixed-sign one in two's complement, whatever
    # the other operand is
    packed = spy_packing(monkeypatch)
    pos = lp({e: e + 1 for e in range(16)})
    # interior zeros: 20 terms spread over 58 and 39 exponents
    gappy = lp({e: 3 for e in range(0, 60, 3)})
    gappy_neg = lp({e: -(e + 21) for e in range(-20, 20, 2)})
    mixed = lp({e: (e + 1) * (-1) ** e for e in range(16)})
    nonnegative = [pos, gappy, -gappy_neg]
    negative = [-pos, gappy_neg, mixed]
    for x in nonnegative + negative:
        for y in nonnegative + negative:
            packed.clear()
            check_product(x, y)
            paths = {"unsigned" if p in nonnegative else "signed" for p in (x, y)}
            assert {path for path, _ in packed} == paths


@settings(max_examples=40, deadline=None)
@given(
    operand_pair(st.one_of(st.integers(min_value=1, max_value=9),
                           st.integers(min_value=1, max_value=2**80))),
    st.booleans(),
    st.booleans(),
)
def test_kronecker_sign_uniform_operands(pair, negate_a, negate_b):
    # every coefficient of each operand has one sign; exponents spread over
    # twice the term count leave interior zeros
    a, b = pair
    check_product(-a if negate_a else a, -b if negate_b else b)

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


# -- stride-2 slots and the per-value pack memo ---------------------------------

# sign-uniform coefficient magnitudes whose bound max|a| * max|b| * min(na, nb)
# (16 to 20 nonzeros each) needs exactly the given unsigned slot width; 9
# stands for any width beyond machine words
slot_magnitudes = {
    1: (1, 3),
    2: (5, 50),
    4: (2**8, 2**13),
    8: (2**17, 2**28),
    9: (2**33, 2**60),
}


@st.composite
def stride2_operand(draw, size, magnitude):
    """x^v times a polynomial in x^2 with exactly `size` positive
    coefficients in [lo, hi] = magnitude, v odd or even, some with interior
    zeros at even offsets too."""
    low = draw(st.integers(min_value=-41, max_value=41))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=size + size // 4),
                            min_size=size, max_size=size, unique=True))
    cs = draw(st.lists(st.integers(*magnitude), min_size=size, max_size=size))
    return lp({low + 2 * j: c for j, c in zip(offsets, cs)})


def alternate(p):
    """p with every other nonzero coefficient negated: mixed signs, the
    same magnitudes."""
    return lp({e: c * (-1) ** i for i, (e, c) in enumerate(sorted(p.terms.items()))})


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(slot_magnitudes)).flatmap(lambda width: st.tuples(
        st.just(width),
        stride2_operand(16, slot_magnitudes[width]),
        stride2_operand(20, slot_magnitudes[width]))),
    st.booleans(),
    st.booleans(),
    st.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
)
def test_stride2_products(case, negate_a, negate_b, mixed):
    # both operands polynomials in x^2 up to a monomial: only their even
    # slots are packed, at the width the bound needs, nonnegative, nonpositive
    # or of mixed signs
    width, a, b = case
    signed = any(mixed) or negate_a or negate_b
    if signed:
        # an operand with a negative coefficient: biased slots need one bit
        # more than the bound, the same width, or the next one when the
        # bound fills the top bit
        bound = max(a.terms.values()) * max(b.terms.values()) * 16
        if width <= 8 and bound >> (8 * width - 1):
            width = {1: 2, 2: 4, 4: 8, 8: 9}[width]
    a, b = (alternate(p) if m else p for p, m in zip((a, b), mixed))
    a, b = -a if negate_a else a, -b if negate_b else b
    check_product(a, b)
    a, b = cold(a), cold(b)
    assert a * b == convolve(a, b)
    for p in (a, b):
        (k, stride), = memo_keys(p)
        assert stride == 2
        assert k == width if width <= 8 else k > 8


@settings(max_examples=30, deadline=None)
@given(stride2_operand(16, (1, 2**20)), stride2_operand(20, (1, 2**20)),
       st.integers(min_value=0, max_value=24), st.booleans())
def test_stride2_times_stride1(a, b, odd, negate):
    # a polynomial in x^2 times one with a single term at an odd offset,
    # anywhere in its span: both are packed whole, one slot per exponent
    b = b + lp({b.valuation() + 2 * odd + 1: 1})
    b = -b if negate else b
    check_product(a, b)
    a, b = cold(a), cold(b)
    assert a * b == convolve(a, b)
    assert {s for _, s in memo_keys(a)} == {s for _, s in memo_keys(b)} == {1}


def test_one_value_packed_once_per_slot_width(monkeypatch):
    packed = spy_packing(monkeypatch)
    a = lp({2 * e + 1: 1 + e % 3 for e in range(20)})
    small = lp({2 * e: 1 for e in range(-8, 12)})
    large = lp({2 * e: 2**30 + e for e in range(-8, 12)})
    products = [convolve(a, small), convolve(a, large)]
    for _ in range(2):
        assert [a * small, a * large] == products
        assert large * a == products[1]
    # the first round packs each of the three values once per width, the
    # second round reuses every pack
    assert sorted(packed) == [("unsigned", 1), ("unsigned", 1),
                              ("unsigned", 8), ("unsigned", 8)]
    assert memo_keys(a) == {(1, 2), (8, 2)}


def test_memo_leaves_equality_hash_and_pickle_unchanged():
    import copy
    import pickle

    a = lp({2 * e: e + 1 for e in range(20)})
    b = -lp({2 * e + 1: 3 for e in range(20)})
    before = hash(a), pickle.dumps(a), pickle.dumps(b)
    assert not hasattr(a, "_kron")
    product = a * b
    assert memo_keys(a) and memo_keys(b)
    assert (hash(a), pickle.dumps(a), pickle.dumps(b)) == before
    assert a == cold(a) and b == cold(b) and hash(b) == hash(cold(b))
    for back in (pickle.loads(pickle.dumps(product)), copy.copy(a), copy.deepcopy(b)):
        assert not hasattr(back, "_kron")
    assert pickle.loads(before[1]) == a and copy.copy(b) == b


def test_mixed_sign_stride2_product_takes_the_signed_path(monkeypatch):
    packed = spy_packing(monkeypatch)
    a = lp({2 * e: (e + 11) * (-1) ** (e % 2) for e in range(-10, 10)})
    b = lp({2 * e + 1: e + 1 for e in range(20)})
    # bound 20 * 20 * 20 = 8000 has 13 bits: with the sign bit, 2-byte slots
    check_product(a, b)
    # check_product multiplies cold copies three times: each is packed once,
    # at stride 2, a in two's complement and the nonnegative b unsigned, and
    # the later products reuse the packs
    assert packed == [("signed", 2), ("unsigned", 2)]
    a, b = cold(a), cold(b)
    assert a * b == convolve(a, b)
    # (smallest coefficient, stride) and (nonzeros, largest magnitude)
    assert a._kron[:2] == (-20, 2) and a._kron[3:] == (20, 20)
    assert b._kron[:2] == (0, 2) and b._kron[3:] == (20, 20)
    assert memo_keys(a) == memo_keys(b) == {(2, 2)}


# -- sums of products: one Kronecker pack and unpack per sum --------------------


def oracle_sum(terms):
    """Schoolbook oracle for sum_of_products: each term's factors folded by
    convolve, the terms added as coefficient dicts."""
    out = {}
    for term in terms:
        product = ONE
        for f in term:
            product = convolve(product, f)
        for e, c in product.terms.items():
            out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def check_sum(terms):
    """sum_of_products on cold copies equals the oracle, canonical, and so
    does a second call, which reuses every pack."""
    terms = [tuple(cold(f) for f in term) for term in terms]
    expected = oracle_sum(terms)
    for _ in range(2):
        got = sum_of_products(terms)
        assert got == expected
        assert_canonical(got)
    return expected


@st.composite
def kernel_factor(draw, signs):
    """A nonzero factor of 1 to 8 terms: x^v times a polynomial in x^2, or
    one with odd offsets too; coefficients nonnegative, nonpositive or of
    both signs per `signs`, small, word-sized or wider than 8 bytes."""
    size = draw(st.integers(min_value=1, max_value=8))
    step = draw(st.sampled_from([1, 2]))
    low = draw(st.integers(min_value=-15, max_value=15))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=10), min_size=size,
                            max_size=size, unique=True))
    top = draw(st.sampled_from([9, 2**20, 2**40, 2**70]))
    cs = draw(st.lists(st.integers(min_value=1, max_value=top), min_size=size, max_size=size))
    sign = signs if signs != "per factor" else draw(st.sampled_from(["+", "-", "mixed"]))
    if sign == "-":
        cs = [-c for c in cs]
    elif sign == "mixed":
        cs = [c * draw(st.sampled_from([1, -1])) for c in cs]
    return lp({low + step * j: c for j, c in zip(offsets, cs)})


kernel_terms = st.sampled_from(["+", "-", "mixed", "per factor"]).flatmap(
    lambda signs: st.lists(
        st.lists(kernel_factor(signs), min_size=1, max_size=6).map(tuple),
        min_size=1, max_size=8,
    )
)


@settings(max_examples=150, deadline=None)
@given(kernel_terms)
def test_sum_of_products_matches_schoolbook(terms):
    # 1-6 factors per term and 1-8 terms per sum: nonnegative, nonpositive
    # or mixed-sign operands, strides 1 and 2 mixed in one sum, and term
    # valuations of both parities
    check_sum(terms)


@settings(max_examples=40, deadline=None)
@given(kernel_terms, st.integers(min_value=-9, max_value=9))
def test_sum_of_products_flipped_terms(terms, shift):
    # negating some terms makes the sum mixed-sign even when every factor is
    # sign-uniform; a shifted copy moves a term's valuation by either parity
    flipped = [(-term[0],) + term[1:] if i % 2 else term for i, term in enumerate(terms)]
    flipped.append((lp({shift: 1}),) + terms[0])
    check_sum(flipped)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["+", "-", "mixed"]).flatmap(kernel_factor), kernel_terms, kernel_terms)
def test_value_shared_by_sums_of_every_sign_class(shared, first, second):
    # one value, nonnegative, nonpositive or of mixed signs, is a factor of
    # some terms in two sums whose other factors mix the three sign
    # classes; its packs are kept in its memo and reused by the later sums
    shared = cold(shared)
    sums = [[(shared,) + term if i % 2 else term for i, term in enumerate(terms)]
            + [(shared,)] for terms in (first, second)]
    for _ in range(2):
        for terms in sums:
            got = sum_of_products(terms)
            assert got == oracle_sum(terms)
            assert_canonical(got)


def test_sum_of_products_cancels_to_canonical_zero():
    a = lp({2 * e: e + 1 for e in range(-5, 15)})
    b = lp({2 * e + 1: 3 for e in range(12)})
    c = lp({e: (-1) ** (e % 2) * (e + 5) for e in range(-4, 20)})
    for terms in ([(a, b), (-a, b)],
                  [(a, b), (c,), (-(a * b + c),)],
                  [(a, b, c), (-a, c, b)]):
        total = sum_of_products(terms)
        assert total == ZERO and total._coeffs == [] and total._val == 0
    # cancellation at both ends leaves the interior, trimmed
    ends = sum_of_products([(a, b), (-a, b), (lp({-3: 5, 4: -7}),), (lp({-3: -5}),)])
    assert ends == lp({4: -7})
    assert_canonical(ends)


def test_sum_of_products_empty_terms():
    a = lp({e: e + 1 for e in range(20)})
    assert sum_of_products([]) is ZERO
    # a lone factor, or none, is no multiply: the value itself, or ONE
    assert sum_of_products([(a,)]) is a
    assert sum_of_products([()]) is ONE
    # an empty term is 1 inside a sum too
    assert sum_of_products([(), (a, a), ()]) == convolve(a, a) + lp({0: 2})


def test_sum_of_products_unpacks_its_span_only(monkeypatch):
    # the sum is unpacked over the exponents from its lowest term's
    # valuation to its highest term's top, far below zero too
    lengths = []
    trim = laurent._from_coeffs

    def spy(val, coeffs):
        lengths.append((val, len(coeffs)))
        return trim(val, coeffs)

    monkeypatch.setattr(laurent, "_from_coeffs", spy)
    a = lp({-1000 + 2 * e: e + 1 for e in range(10)})
    b = lp({-901 + 2 * e: 1 for e in range(5)})
    c = lp({-7 + e: 2 for e in range(4)})
    total = sum_of_products([(a, b), (b, c), (c, a)])
    assert total == oracle_sum([(a, b), (b, c), (c, a)])
    assert lengths == [(-1901, total.degree() - total.valuation() + 1)]


def chain_sum(k, exact):
    """Two terms whose middle coefficients add up to the bound: 17 ones
    times 17 copies of c1, and 17 ones times the monomial 2 x^2 times 17
    copies of c2, aligned.  The bound 17 c1 + 17 * 2 * c2 is 2^(8k) - 1
    when exact, else 16 ones and 16 copies give 2^(8k)."""
    size = 17 if exact else 16
    total = ((1 << (8 * k)) - 1) // 17 if exact else 1 << (8 * k - 4)
    c1 = 1 if exact else 2
    c2 = (total - c1) // 2
    ones = lp({e: 1 for e in range(-30, -30 + size)})
    first = lp({e: c1 for e in range(7, 7 + size)})
    second = lp({e: c2 for e in range(5, 5 + size)})
    return [(ones, first), (ones, lp({2: 2}), second)], size * total


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_sum_of_products_slot_width_boundaries(monkeypatch, k):
    # the bound sums the per-term chain bounds; at 2^(8k) - 1 the sum of
    # nonnegative factors packs into k-byte unsigned slots with its middle
    # slot full, at 2^(8k) it needs the next width (9 bytes: beyond machine
    # words).  A factor with a negative coefficient, in every term or in
    # one, reads the sum back from biased slots, one bit wider: the next
    # width at both bounds.
    packed = spy_packing(monkeypatch)
    wider = {1: 2, 2: 4, 4: 8, 8: 9}[k]
    for exact, width in ((True, k), (False, wider)):
        terms, bound = chain_sum(k, exact)
        assert bound == (1 << (8 * k)) - exact
        for negate, expected in ((False, {("unsigned", width)}),
                                 (True, {("signed", wider), ("unsigned", wider)})):
            signed_terms = [((-t[0],) + t[1:]) if negate else t for t in terms]
            packed.clear()
            total = check_sum(signed_terms)
            assert set(packed) == expected
            assert max(abs(c) for c in total.terms.values()) == bound
        packed.clear()
        check_sum([terms[0], (-terms[1][0],) + terms[1][1:]])
        assert set(packed) == {("signed", wider), ("unsigned", wider)}


def test_sum_of_products_wider_than_machine_words(monkeypatch):
    packed = spy_packing(monkeypatch)
    a = lp({e: 2**100 + e for e in range(0, 40, 2)})
    b = lp({e: -(3**50) - e for e in range(-5, 15)})
    c = lp({e: (-1) ** e * 2**70 for e in range(6)})
    for terms in ([(a, b), (b, a, a)], [(a, b), (-b, a, a)], [(a, c), (b, b)]):
        packed.clear()
        check_sum(terms)
        assert packed and all(k > 8 for _, k in packed)


def test_sum_of_products_stride():
    # stride 2 only when every factor has it and every term's valuation
    # has one parity
    a = lp({2 * e: e + 1 for e in range(10)})
    b = lp({2 * e + 1: 2 for e in range(8)})
    odd = lp({0: 1, 1: 1})
    for terms, stride in (([(a, b), (b, a, a)], 2),
                          ([(a, b), (a, a)], 1),
                          ([(a, b), (odd, a)], 1)):
        terms = [tuple(cold(f) for f in term) for term in terms]
        assert sum_of_products(terms) == oracle_sum(terms)
        assert {s for term in terms for f in term for _, s in memo_keys(f)} == {stride}


def test_cached_q_binomial_packed_once_per_layout(monkeypatch):
    from qidentities import qcombo

    qcombo.q_binomial.cache_clear()
    qcombo.q_binomial_signed.cache_clear()
    binom = qcombo.q_binomial(20, 6)
    assert not hasattr(binom, "_kron")
    packs = []
    pack = laurent._packed

    def spy(p, k, stride):
        if p is binom:
            packs.append((k, stride))
        return pack(p, k, stride)

    monkeypatch.setattr(laurent, "_packed", spy)
    small = [lp({2 * e: 1 for e in range(n)}) for n in (3, 5, 7)]
    large = [lp({2 * e: 2**40 for e in range(n)}) for n in (3, 5)]
    for _ in range(3):
        assert sum_of_products([(binom, f) for f in small]) == oracle_sum(
            [(binom, f) for f in small])
        assert sum_of_products([(f, binom, binom) for f in large]) == oracle_sum(
            [(f, binom, binom) for f in large])
    # one pack of the cached value per layout, reused by every later term
    # and call; the q-binomial cache hands the same value out again
    assert len(packs) == len(set(packs)) == 2
    assert memo_keys(binom) == set(packs)
    assert qcombo.q_binomial(20, 6) is binom


def test_nonnegative_value_packed_once_for_both_read_backs(monkeypatch):
    # a pack is the value at X = 2^(8k) whatever the sum's slots, so a
    # nonnegative value packed for a sum read back from unsigned slots is
    # reused by one read back from biased slots at the same (k, stride)
    from qidentities import qcombo

    binom = cold(qcombo.q_binomial(20, 6))
    f = lp({2 * e: 1 for e in range(3)})
    mixed = lp({0: 1, 2: -1, 4: 1})
    # every bound here, at most 3 times binom's largest coefficient plus 3,
    # has 12 bits: 2-byte slots, unsigned or with the sign bit
    assert (3 * max(binom.terms.values()) + 3).bit_length() == 12
    packed = spy_packing(monkeypatch)
    sums = ([(binom, f)], [(binom, -f)], [(binom, mixed), (f,)], [(binom, f), (-f, f)])
    for _ in range(2):
        for terms in sums:
            assert sum_of_products(terms) == oracle_sum(terms)
    assert packed.count(("unsigned", 2)) == 2  # binom and f, once each
    assert memo_keys(binom) == {(2, 2)}
    # a factor with odd offsets makes a stride-1 sum at the same width: a
    # second layout, which the stride-2 sums after it do not take for theirs
    odd = lp({0: 1, 1: -1})
    for _ in range(2):
        for terms in sums + ([(binom, odd)],):
            assert sum_of_products(terms) == oracle_sum(terms)
    assert memo_keys(binom) == {(2, 2), (2, 1)}
    assert packed.count(("unsigned", 2)) == 3


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
    assert RationalFunction(x2m1, xm1) == RationalFunction(xp1)
    p = lp({4: 3, -1: 2})
    assert RationalFunction(p) == RationalFunction(p)
    assert RationalFunction(ONE, xm1) != RationalFunction(ONE, xp1)


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


def test_rf_is_unhashable():
    # equality is by cross-multiplication of an unreduced form, so equal
    # fractions need not share a hash
    with pytest.raises(TypeError):
        hash(RationalFunction(ONE))


def test_rf_json_form():
    r = RationalFunction(lp({1: 1}), lp({0: 2}))
    assert r.to_json_obj() == {"num": [[1, "1"]], "den": [[0, "2"]]}
    assert r.to_json() == '{"num":[[1,"1"]],"den":[[0,"2"]]}'


def test_rf_render_styles():
    r = RationalFunction(lp({2: 1, 0: -1}), lp({1: 2}))
    assert r.render() == "(q - 1)/(2*q^(1/2))"
    assert r.render("latex") == "\\frac{q - 1}{2q^{1/2}}"
    assert r.render("json") == r.to_json()
    with pytest.raises(ValueError):
        r.render("html")


@given(json_polys, json_polys.filter(lambda p: not p.is_zero()))
def test_rf_to_json_is_the_compact_dump_of_to_json_obj(num, den):
    r = RationalFunction(num, den)
    assert r.to_json() == json.dumps(r.to_json_obj(), separators=(",", ":"))
