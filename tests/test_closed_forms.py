"""Tests for the closed forms: refined sum, both theorems, surface values."""

import math

import pytest

from qidentities import (
    FSumSpec,
    InvalidHypothesis,
    LaurentPoly,
    SURFACE_TAGS,
    f_enumerated,
    nlog_value,
    prop3_rhs,
    q_binomial,
    theorem1_rhs,
    theorem2_rhs,
)


def lp(terms):
    return LaurentPoly(terms)


# -- refined-sum closed form ---------------------------------------------------


def test_prop3_multiplicity_one():
    for D in (3, 5, 8, 11):
        for d1 in range(1, 5):
            assert prop3_rhs(D, d1, 1) == q_binomial(D, 1)


def test_prop3_worked_example():
    assert prop3_rhs(8, 2, 2) == f_enumerated(FSumSpec(8, 2, 2))
    assert prop3_rhs(8, 2, 2) == q_binomial(8, 2)


def test_prop3_hypothesis():
    with pytest.raises(InvalidHypothesis):
        prop3_rhs(8, 3, 4)
    with pytest.raises(InvalidHypothesis):
        prop3_rhs(8, 3, 0)
    with pytest.raises(InvalidHypothesis):
        prop3_rhs(0, 3, 2)


def test_prop3_small_first_parameter():
    # the closed form holds even when the first binomial top goes negative
    for D in range(1, 8):
        for d1 in range(1, 7):
            for k0 in range(1, d1 + 1):
                assert prop3_rhs(D, d1, k0) == f_enumerated(FSumSpec(D, d1, k0))


# -- theorem right-hand sides ------------------------------------------------------


def test_theorem1_rhs_values():
    assert theorem1_rhs(2, 1) == lp({3: 1, 1: 1, -1: 1, -3: 1})
    expected = lp({3: 1, -3: 1}) * q_binomial(3, 1) * q_binomial(3, 3)
    assert theorem1_rhs(3, 1) == expected


def test_theorem1_rhs_hypothesis():
    with pytest.raises(InvalidHypothesis):
        theorem1_rhs(2, 2)
    with pytest.raises(InvalidHypothesis):
        theorem1_rhs(1, 0)


def test_theorem2_rhs_values():
    assert theorem2_rhs(1, 1) == lp({2: 1, 0: 1, -2: 1})
    expected = lp({2: 1, -2: 1}) * lp({1: 1, -1: 1}) * lp({1: 1, -1: 1})
    assert theorem2_rhs(1, 2) == expected


def test_theorem2_rhs_hypothesis():
    with pytest.raises(InvalidHypothesis):
        theorem2_rhs(3, 0)
    with pytest.raises(InvalidHypothesis):
        theorem2_rhs(0, 3)


def test_binomial_spelling_equivalences():
    for d0 in range(2, 16):
        for d1 in range(1, d0):
            assert q_binomial(d0 + d1 - 1, d1 - 1) == q_binomial(d0 + d1 - 1, d0)
    for d1 in range(1, 16):
        for d2 in range(1, 16):
            assert q_binomial(d1 + d2 - 1, d1) == q_binomial(d1 + d2 - 1, d2 - 1)


def test_rhs_values_palindromic():
    for d0 in range(2, 9):
        for d1 in range(1, d0):
            v = theorem1_rhs(d0, d1)
            assert v.reverse() == v
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            v = theorem2_rhs(d1, d2)
            assert v.reverse() == v


def test_q_to_one_specialization():
    for d0 in range(2, 11):
        for d1 in range(1, d0):
            expected = 2 * math.comb(d0, d1) * math.comb(d0 + d1 - 1, d0)
            assert theorem1_rhs(d0, d1).coeff_sum() == expected
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            total = (2 * d1 + d2) * math.comb(d1 + d2 - 1, d1) ** 2
            assert total % d2 == 0
            assert theorem2_rhs(d1, d2).coeff_sum() == total // d2


# -- surface generating-series values ------------------------------------------------


def test_surface_tags_closed():
    assert SURFACE_TAGS == ("dP1_04", "F0_04")


def test_nlog_values():
    assert nlog_value("dP1_04", 2, 1) == lp({3: 1, 1: 1, -1: 1, -3: 1})
    assert nlog_value("F0_04", 1, 1) == lp({2: 1, 0: 1, -2: 1})
    for d0 in range(2, 8):
        for d1 in range(1, d0):
            assert nlog_value("dP1_04", d0, d1) == theorem1_rhs(d0, d1)
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            assert nlog_value("F0_04", d1, d2) == theorem2_rhs(d1, d2)


def test_nlog_errors():
    with pytest.raises(InvalidHypothesis):
        nlog_value("dP1_04", 1, 1)
    with pytest.raises(InvalidHypothesis):
        nlog_value("F0_04", 0, 1)
    with pytest.raises(ValueError):
        nlog_value("P2", 2, 1)


def test_broken_binomial_symmetry_fails_the_spelling_checks(monkeypatch, capsys):
    # the short side, which the values use: qbinom(3, k) for k = 1, 2, 3
    _assert_spelling_checks_fail(
        monkeypatch, capsys, "q_binomial_factored", ((3, 1), (3, 2), (3, 3)))


def test_broken_long_row_side_fails_the_spelling_checks(monkeypatch, capsys):
    # the long side, which only the checks build: [3, 2] and [3, 3]
    _assert_spelling_checks_fail(monkeypatch, capsys, "_q_binomial_row", ((3, 2), (3, 3)))


def _assert_spelling_checks_fail(monkeypatch, capsys, builder, broken):
    # one side of a row carries an extra x^2, still a polynomial, so only
    # the spelling check sees it
    import json

    from qidentities import closed_forms
    from qidentities.cli import main
    from qidentities.qcombo import QFactored, qf_mul

    real = getattr(closed_forms, builder)
    untouched = theorem2_rhs(2, 1)  # the row of qbinom(2, 2) and qbinom(2, 0)

    def asymmetric(n, k):
        value = real(n, k)
        return qf_mul(value, QFactored(1, 2)) if (n, k) in broken else value

    monkeypatch.setattr(closed_forms, builder, asymmetric)
    with pytest.raises(ArithmeticError, match=r"theorem2_rhs\(1, 3\)"):
        theorem2_rhs(1, 3)
    with pytest.raises(ArithmeticError, match=r"theorem2_rhs\(2, 2\)"):
        theorem2_rhs(2, 2)
    with pytest.raises(ArithmeticError, match=r"theorem1_rhs\(3, 1\)"):
        nlog_value("dP1_04", 3, 1)
    assert theorem2_rhs(2, 1) == untouched
    assert main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"pass": 4, "fail": 2, "degenerate": 0}
    failed = [json.loads(line) for line in lines[:-1] if not json.loads(line)["equal"]]
    assert [r["params"] for r in failed] == [{"d1": 1, "d2": 3}, {"d1": 2, "d2": 2}]
    for record in failed:
        assert record["lhs"] is None and record["rhs"] is None
        assert record["error"].startswith(
            "ArithmeticError: binomial-spelling disagreement in theorem2_rhs")
    # verify thm1 reaches the same check: theorem1_rhs(3, 1) compares the
    # two sides of the row of qbinom(3, 3)
    assert main(["verify", "--identity", "thm1", "--d0", "3", "--d1", "1"]) == 1
    line, summary = capsys.readouterr().out.splitlines()
    assert json.loads(summary) == {"pass": 0, "fail": 1, "degenerate": 0}
    assert json.loads(line)["error"] == (
        "ArithmeticError: binomial-spelling disagreement in theorem1_rhs(3, 1)")
