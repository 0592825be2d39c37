"""Tests for terminating basic hypergeometric series and the
q-Pfaff-Saalschutz summation."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qidentities import (
    Degenerate,
    NonTerminating,
    ONE,
    PhiSeries,
    QFactored,
    RationalFunction,
    SaalschutzInstance,
    is_saalschutzian,
    phi_evaluate,
    q_pochhammer,
    qf_div,
    qf_mul,
    qf_to_rational,
    saalschutz_rhs,
    verify_saalschutz,
)
from qidentities import hypergeom
from qidentities.hypergeom import series_terms
from test_qcombo import ref_pochhammer_vanishes

RF_ONE = RationalFunction(ONE)


def thm1_proof_series(d0: int, d1: int) -> PhiSeries:
    """upper q^(-2 d1), q^(-d1), q^(1-d1); lower q^(1+d0-2 d1),
    q^(1-d0-2 d1); argument q.  Exponents are in x-units (2 per power of q)."""
    return PhiSeries(
        upper=(-4 * d1, -2 * d1, 2 - 2 * d1),
        lower=(2 + 2 * d0 - 4 * d1, 2 - 2 * d0 - 4 * d1),
        z_exp=2,
    )


def thm1_proof_instance(d0: int, d1: int) -> SaalschutzInstance:
    # terminating parameter q^(-2 d1), so N = 2 d1; a = q^(-d1), b = q^(1-d1),
    # c = q^(1+d0-2 d1); the remaining lower parameter is then derived.
    return SaalschutzInstance(
        a_exp=-2 * d1, b_exp=2 - 2 * d1, c_exp=2 + 2 * d0 - 4 * d1, N=2 * d1
    )


def thm2_proof_series(d1: int, d2: int) -> PhiSeries:
    """upper q^(1+d1+d2), q^(1-d2), q^(1-d1); lower q^2, q^2; argument q."""
    return PhiSeries(
        upper=(2 + 2 * d1 + 2 * d2, 2 - 2 * d2, 2 - 2 * d1),
        lower=(4, 4),
        z_exp=2,
    )


def thm2_proof_instance(d1: int, d2: int) -> SaalschutzInstance:
    # a = q^(1+d1+d2), b = q^(1-d2), N = d1 - 1 (from q^(1-d1)), c = q^2
    return SaalschutzInstance(
        a_exp=2 + 2 * d1 + 2 * d2, b_exp=2 - 2 * d2, c_exp=4, N=d1 - 1
    )


# -- series basics -----------------------------------------------------------------


def test_phi_series_shape_check():
    with pytest.raises(ValueError):
        PhiSeries(upper=(2, 2), lower=(2, 2), z_exp=2)


@pytest.mark.parametrize("upper, lower, z_exp, field", [
    ((-2.5, 1, 1), (3, 5), 2, "upper"),
    ((-2, 1, 1), (3, 5.5), 2, "lower"),
    ((-2, 1, 1), (3, 5), 2.5, "z_exp"),
    ((-2, "1", 1), (3, 5), 2, "upper"),
])
def test_phi_series_refuses_non_integral_exponents(upper, lower, z_exp, field):
    # PhiSeries((-2.5, 1, 1), (3, 5), 2.5) would otherwise be the series
    # with upper (-2, 1, 1) and z_exp 2, which terminates at N = 1
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        PhiSeries(upper, lower, z_exp)


@pytest.mark.parametrize("params, field", [
    ((1.5, 3, 5, 2), "a_exp"),
    ((1, 3.5, 5, 2), "b_exp"),
    ((1, 3, 5.5, 2), "c_exp"),
    ((1, 3, 5, 2.5), "N"),
    ((1, 3, 5, None), "N"),
])
def test_saalschutz_instance_refuses_non_integral_parameters(params, field):
    # SaalschutzInstance(1.5, 3, 5, 2).lhs_series() would otherwise have the
    # lower parameters (5, -2)
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        SaalschutzInstance(*params)
    # values equal to ints are those ints, and the series is the int one's
    inst = SaalschutzInstance(1.0, 3, 5.0, 2)
    assert tuple(map(type, inst)) == (int,) * 4
    assert inst.lhs_series() == SaalschutzInstance(1, 3, 5, 2).lhs_series()


def test_phi_requires_termination():
    with pytest.raises(NonTerminating):
        phi_evaluate(PhiSeries(upper=(2, 4, 3), lower=(6, 6), z_exp=2))


def test_phi_unit_parameter_gives_one():
    # an upper parameter equal to q^0 = 1 kills every term past l = 0
    series = PhiSeries(upper=(0, 4, -6), lower=(6, 8), z_exp=2)
    assert phi_evaluate(series) == RF_ONE


def test_phi_order_zero_gives_one():
    series = PhiSeries(upper=(0, 4, 6), lower=(6, 8), z_exp=2)
    assert phi_evaluate(series) == RF_ONE


def test_phi_pole_detection():
    with pytest.raises(Degenerate):
        phi_evaluate(PhiSeries(upper=(4, 6, -4), lower=(-2, 8), z_exp=2))


def test_phi_two_term_sum_by_hand():
    # N = 1: value is 1 + (1-a)(1-b)(1-q^-1) z / ((1-q)(1-b1)(1-b2))
    series = PhiSeries(upper=(4, 6, -2), lower=(8, 10), z_exp=2)
    value = phi_evaluate(series)
    from qidentities import LaurentPoly

    def lin(t):
        return LaurentPoly({0: 1, t: -1})

    term1 = RationalFunction(
        LaurentPoly({2: 1}) * lin(4) * lin(6) * lin(-2),
        lin(2) * lin(8) * lin(10),
    )
    assert value == RF_ONE + term1


def test_phi_parameter_permutation_invariance():
    # each order of the parameters, summed fresh, gives the very same
    # fraction, byte for byte, as the memo's key assumes; once it is kept,
    # any other order is a hit that returns the kept object
    base = PhiSeries(upper=(4, 6, -4), lower=(8, 10), z_exp=2)
    text = phi_evaluate(base).to_json()
    for perm in itertools.permutations(base.upper):
        for lower in (base.lower, base.lower[::-1]):
            hypergeom._phi_sums.cache_clear()
            fresh = phi_evaluate(PhiSeries(perm, lower, 2))
            assert fresh.to_json() == text
            assert phi_evaluate(base) is fresh
            assert memo_keys() == [((-4, 4, 6), (8, 10), 2)]


@given(
    st.integers(min_value=1, max_value=4),
    st.permutations([0, 1, 2]),
)
def test_phi_permutation_property(n_order, perm):
    upper = (3, 6, -2 * n_order)
    lower = (5, 9)
    base = phi_evaluate(PhiSeries(upper, lower, 2))
    shuffled = tuple(upper[i] for i in perm)
    hypergeom._phi_sums.cache_clear()
    assert phi_evaluate(PhiSeries(shuffled, lower, 2)).to_json() == base.to_json()


def test_phi_series_converts_z_exp_to_int():
    # a float argument exponent is read as the int it equals, as the
    # parameters are, so it sums and keys the memo as that int does
    series = PhiSeries((-2, 1, 1), (3, 5), 2.0)
    assert type(series.z_exp) is int
    value = phi_evaluate(series).to_json()
    hypergeom._phi_sums.cache_clear()
    assert value == phi_evaluate(PhiSeries((-2, 1, 1), (3, 5), 2)).to_json()


# -- phi_evaluate's memo ---------------------------------------------------------------


def memo_keys():
    return list(hypergeom._phi_sums._values)


def test_memo_misses_on_an_exchanged_parameter_or_another_argument():
    base = phi_evaluate(PhiSeries(upper=(4, 6, -4), lower=(8, 10), z_exp=2))
    # 6 moved from the upper parameters to the lower and 8 the other way,
    # then the same series at z = q^2
    exchanged = phi_evaluate(PhiSeries(upper=(4, 8, -4), lower=(6, 10), z_exp=2))
    other_z = phi_evaluate(PhiSeries(upper=(4, 6, -4), lower=(8, 10), z_exp=4))
    assert len(hypergeom._phi_sums) == 3
    assert exchanged != base and other_z != base
    hypergeom._phi_sums.cache_clear()
    assert exchanged.to_json() == phi_evaluate(
        PhiSeries(upper=(4, 8, -4), lower=(6, 10), z_exp=2)).to_json()
    assert other_z.to_json() == phi_evaluate(
        PhiSeries(upper=(4, 6, -4), lower=(8, 10), z_exp=4)).to_json()


@pytest.mark.parametrize("series, error, message", [
    (PhiSeries(upper=(4, 6, -4), lower=(-2, 8), z_exp=2), Degenerate,
     "lower parameter x^-2 vanishes within summation range"),
    (PhiSeries(upper=(2, 4, 3), lower=(6, 6), z_exp=2), NonTerminating,
     "no upper parameter of the form q^(-N)"),
])
def test_memo_keeps_nothing_for_a_series_that_raises(series, error, message):
    for _ in range(3):
        with pytest.raises(error) as info:
            phi_evaluate(series)
        assert str(info.value) == message
        assert len(hypergeom._phi_sums) == hypergeom._phi_sums.coefficients == 0


def test_memo_bound_counts_coefficients_and_evicts_the_least_recent(monkeypatch):
    size = hypergeom._coefficient_count
    series = [PhiSeries((1, 3, -2 * n), (5, 7), 2) for n in range(1, 6)]
    values = [phi_evaluate(s) for s in series]
    sizes = [size(v) for v in values]
    assert sizes == sorted(sizes) and sizes[0] < sizes[1]
    # a bound that holds the second and third sums, but not the largest alone
    budget = sizes[1] + sizes[2]
    assert sizes[-1] > budget
    monkeypatch.setattr(hypergeom, "PHI_CACHE_COEFFICIENTS", budget)
    hypergeom._phi_sums.cache_clear()
    phi_evaluate(series[-1])
    assert len(hypergeom._phi_sums) == hypergeom._phi_sums.coefficients == 0
    phi_evaluate(series[0])
    phi_evaluate(series[1])
    assert hypergeom._phi_sums.coefficients == sizes[0] + sizes[1]
    # series[0] is used again, so series[1] is the least recent and goes
    phi_evaluate(series[0])
    phi_evaluate(series[2])
    assert memo_keys() == [((-2, 1, 3), (5, 7), 2), ((-6, 1, 3), (5, 7), 2)]
    for s in series:
        phi_evaluate(s)
        kept = [hypergeom._phi_sums._values[k] for k in memo_keys()]
        assert hypergeom._phi_sums.coefficients == sum(map(size, kept)) <= budget
    assert [v.to_json() for v in map(phi_evaluate, series)] == [
        v.to_json() for v in values]


def test_saalschutz_golden_with_a_one_coefficient_memo(monkeypatch, capsys):
    # only a sum that is 0/1 fits the memo, so every other cell sums its
    # series afresh
    from test_golden import GOLDEN, run_digest

    monkeypatch.setattr(hypergeom, "PHI_CACHE_COEFFICIENTS", 1)
    command = "verify --identity saalschutz --a=-3..3 --b=-2..2 --c=-3..3 --N=4..7"
    assert run_digest(command, capsys) == GOLDEN[command]
    assert hypergeom._phi_sums.coefficients <= 1


def test_cold_caches_clears_every_module_cache(capsys):
    # every module-level cache of qcombo, sums and hypergeom is in the
    # fixture's list, and each holds values after a few small grids
    import conftest
    from qidentities import qcombo, sums
    from qidentities.cli import main

    found = {
        id(value): value for module in (qcombo, sums, hypergeom)
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and not isinstance(value, type)
    }
    assert id(hypergeom._phi_sums) in found
    assert sorted(found) == sorted(map(id, conftest.CACHES))
    found = found.values()

    def size(cached):
        info = getattr(cached, "cache_info", None)
        return info().currsize if info else len(cached)

    for argv in (
        "verify --identity thm2 --d1 1..3 --d2 1..3",
        "verify --identity prop3 --D 1..3 --d1 1..3 --k0 1..3",
        "verify --identity saalschutz --a 1 --b 3 --c 5 --N 1..2",
    ):
        assert main(argv.split()) == 0
    capsys.readouterr()
    assert all(size(cached) for cached in found)
    conftest.clear_caches()
    assert not any(size(cached) for cached in found)


# -- the summation formula ---------------------------------------------------------


def test_rhs_order_zero_is_one():
    assert saalschutz_rhs(SaalschutzInstance(3, 5, 7, 0)) == RF_ONE


def test_rhs_vanishing_numerator():
    inst = SaalschutzInstance(a_exp=6, b_exp=3, c_exp=6, N=2)
    value = saalschutz_rhs(inst)
    assert value.num.is_zero()


def test_rhs_pole():
    with pytest.raises(Degenerate):
        saalschutz_rhs(SaalschutzInstance(a_exp=3, b_exp=5, c_exp=0, N=1))


def test_verify_basic_instances():
    assert verify_saalschutz(SaalschutzInstance(2, 4, 8, 2))
    assert verify_saalschutz(SaalschutzInstance(-3, 5, 1, 0))


def test_verify_order_one_generic():
    for a, b, c in itertools.product((-2, 3, 5), repeat=3):
        inst = SaalschutzInstance(a, b, c, 1)
        try:
            assert verify_saalschutz(inst)
        except Degenerate:
            pass


def test_verify_degenerate_detection(monkeypatch):
    # the closed form goes first, so a degenerate instance sums no series
    def no_series(series):
        raise AssertionError("series summed")

    monkeypatch.setattr(hypergeom, "phi_evaluate", no_series)
    with pytest.raises(Degenerate):
        verify_saalschutz(SaalschutzInstance(a_exp=3, b_exp=5, c_exp=0, N=1))
    # derived lower parameter hits q^0: a + b + 2(1-N) - c = 0
    with pytest.raises(Degenerate):
        verify_saalschutz(SaalschutzInstance(a_exp=3, b_exp=5, c_exp=6, N=2))


def test_verify_degenerate_exactly_when_a_lower_pochhammer_vanishes():
    # (c; q)_N or (d; q)_N vanishes, d = ab q^(1-N)/c: the closed form's
    # denominator (c; q)_N (c/(ab); q)_N vanishes on the same instances
    degenerate = 0
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        for n in range(5):
            inst = SaalschutzInstance(a, b, c, n)
            expected = ref_pochhammer_vanishes(c, n) or ref_pochhammer_vanishes(
                inst.derived_lower_exp(), n
            )
            try:
                holds = verify_saalschutz(inst)
            except Degenerate:
                holds = None
            assert (holds is None) == expected, inst
            assert holds is not False, inst
            degenerate += expected
    assert 0 < degenerate < 13**3 * 5


def test_degenerate_closed_form_is_found_before_its_numerator():
    # (c; q)_N vanishes, so the numerator's (c/a; q)_N, with a count past
    # any list index, is never built: Degenerate, not OverflowError
    huge = 10**20
    with pytest.raises(Degenerate):
        saalschutz_rhs(SaalschutzInstance(a_exp=1, b_exp=2, c_exp=-2, N=huge))
    with pytest.raises(OverflowError):
        saalschutz_rhs(SaalschutzInstance(a_exp=1, b_exp=2, c_exp=1, N=huge))


def test_phi_evaluate_huge_order_overflows_at_once(monkeypatch):
    # a lower parameter's vanishing is found by range membership, so a
    # huge N still raises at once instead of summing terms without end
    def no_term(*args, **kwargs):
        raise AssertionError("a series term was built")

    monkeypatch.setattr(hypergeom, "_product", no_term)
    huge = 10**20
    with pytest.raises(OverflowError):
        phi_evaluate(PhiSeries(upper=(1, 3, -2 * huge), lower=(5, 7), z_exp=2))
    with pytest.raises(Degenerate):
        phi_evaluate(PhiSeries(upper=(1, 3, -2 * huge), lower=(5, -2), z_exp=2))


def test_series_terms_are_the_pochhammer_quotients():
    # term k = (a1, a2, a3; q)_k z^k / (q, b1, b2; q)_k, from the definition;
    # the second series ends at its even upper parameter q^(-2)
    for upper, lower, z_exp in [((1, 4, -6), (5, 8), 2), ((-3, 2, -4), (7, -1), -1)]:
        series = PhiSeries(upper, lower, z_exp)
        terms = list(series_terms(series))
        assert len(terms) == hypergeom._termination_order(upper) + 1
        for k, term in enumerate(terms):
            expected = QFactored(1, k * z_exp)
            for t in upper:
                expected = qf_mul(expected, q_pochhammer(t, k))
            for t in lower + (2,):
                expected = qf_div(expected, q_pochhammer(t, k))
            assert term == expected, (series, k)


def test_instance_validation_and_json():
    with pytest.raises(ValueError):
        SaalschutzInstance(2, 4, 8, -1)
    inst = SaalschutzInstance(2, 4, 8, 2)
    assert inst.derived_lower_exp() == 2 + 4 + 2 * (1 - 2) - 8


# -- structural pattern matching ------------------------------------------------------


def test_is_saalschutzian_proof_instances():
    assert is_saalschutzian(thm1_proof_series(3, 2))
    assert is_saalschutzian(thm2_proof_series(2, 3))


def test_is_saalschutzian_negatives():
    assert not is_saalschutzian(PhiSeries((-4, 6, 10), (2, 2), 2))
    assert not is_saalschutzian(PhiSeries((-4, 6, 10), (2, 2), 4))
    assert not is_saalschutzian(PhiSeries((2, -4), (6,), 2))


def test_is_saalschutzian_matches_instances():
    for inst in (SaalschutzInstance(2, 4, 8, 2), SaalschutzInstance(-3, 7, 5, 3)):
        assert is_saalschutzian(inst.lhs_series())


# -- the proof-specific families -----------------------------------------------------


def test_thm1_proof_instance_small():
    d0, d1 = 5, 2
    inst = thm1_proof_instance(d0, d1)
    assert phi_evaluate(thm1_proof_series(d0, d1)) == saalschutz_rhs(inst)
    assert verify_saalschutz(inst)


def test_thm1_proof_instance_degenerate_cells():
    # when d0 <= 2*d1 - 1 the series has a lower-parameter zero in range;
    # those are exactly the cells where the surrounding prefactor
    # qbinom(d0 - d1 - 1, d1 - 1) vanishes, so skipping them loses nothing
    from qidentities import q_binomial

    with pytest.raises(Degenerate):
        verify_saalschutz(thm1_proof_instance(3, 2))
    assert q_binomial(3 - 2 - 1, 2 - 1).is_zero()


def test_thm2_proof_instance_small():
    d1, d2 = 2, 3
    inst = thm2_proof_instance(d1, d2)
    assert phi_evaluate(thm2_proof_series(d1, d2)) == saalschutz_rhs(inst)
    assert verify_saalschutz(inst)


def test_proof_instances_match_their_series():
    # the explicit instances reproduce the series parameters up to ordering
    s = thm1_proof_series(5, 2)
    i = thm1_proof_instance(5, 2).lhs_series()
    assert sorted(s.upper) == sorted(i.upper)
    assert sorted(s.lower) == sorted(i.lower)
    s = thm2_proof_series(4, 3)
    i = thm2_proof_instance(4, 3).lhs_series()
    assert sorted(s.upper) == sorted(i.upper)
    assert sorted(s.lower) == sorted(i.lower)


# -- the series step against the per-factor chain it replaced -------------------------


def old_one_minus_x(e):
    """1 - x^e as its own factored value, by the three-branch normalization."""
    if e == 0:
        return QFactored(0)
    if e > 0:
        return QFactored(factors={e: 1})
    return QFactored(sign=-1, x_power=e, factors={-e: 1})


def old_phi_evaluate(series):
    """phi_evaluate with each step's ratio chained one 1 - x^e factor at a
    time through qf_mul and qf_div (the pole check is the caller's)."""
    n_max = min(-t // 2 for t in series.upper if t <= 0 and t % 2 == 0)
    total = RF_ONE
    term = QFactored()
    for ell in range(n_max):
        ratio = QFactored(1, series.z_exp)
        for t in series.upper:
            ratio = qf_mul(ratio, old_one_minus_x(t + 2 * ell))
        if ratio.zero:
            break
        for t in series.lower + (2,):
            ratio = qf_div(ratio, old_one_minus_x(t + 2 * ell))
        term = qf_mul(term, ratio)
        total = total + qf_to_rational(term)
    return total


def test_phi_step_matches_per_factor_chain_exactly():
    # odd and even exponents, N up to 5, and an even nonpositive upper
    # parameter that ends the series before q^(-2N) would
    checked = early = 0
    for a, b, c, d, n_order, z_exp in itertools.product(
        (-4, -3, 0, 1, 6), (-2, 5), (-5, 1, 4), (-1, 3, 8), range(6), (2, -1)
    ):
        series = PhiSeries((a, b, -2 * n_order), (c, d), z_exp)
        try:
            got = phi_evaluate(series)
        except Degenerate:
            continue
        checked += 1
        orders = [-t // 2 for t in (a, b) if t <= 0 and t % 2 == 0]
        early += min(orders, default=n_order) < n_order
        assert got.to_json_obj() == old_phi_evaluate(series).to_json_obj(), series
    assert checked > 1000 and early > 500
