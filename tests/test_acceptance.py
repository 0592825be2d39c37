"""Acceptance suite.

Every check is an exact equality — there are no numeric tolerances
anywhere.  Each criterion prints one PASS/FAIL line (run pytest with -s,
the repository default, to see them on green runs).
"""

import math
import subprocess
import sys

from qidentities import (
    Degenerate,
    FSumSpec,
    LaurentPoly,
    PhiSeries,
    SaalschutzInstance,
    enumerate_indices,
    f_enumerated,
    f_recursive,
    is_saalschutzian,
    prop3_rhs,
    q_binomial,
    theorem1_lhs,
    theorem1_rhs,
    theorem2_lhs,
    theorem2_rhs,
    verify_saalschutz,
)


def report(name):
    """Decorator: run the criterion, print one PASS/FAIL line."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print("%s: FAIL" % name)
                raise
            print("%s: PASS" % name)

        run.__name__ = fn.__name__
        return run

    return wrap


def partition_count(n: int) -> int:
    """Independent DP oracle for the partition numbers p(n)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# -- criterion 1: first product formula ---------------------------------------


@report("criterion 1 (first product formula, 1 <= d1 < d0 <= 12)")
def test_criterion_1_theorem1_grid():
    for d0 in range(2, 13):
        for d1 in range(1, d0):
            # theorem1_lhs itself computes both internal code paths and
            # raises if they disagree
            assert theorem1_lhs(d0, d1) == theorem1_rhs(d0, d1), (d0, d1)


# -- criterion 2: second product formula ----------------------------------------


@report("criterion 2 (second product formula, d1, d2 in [1..10])")
def test_criterion_2_theorem2_grid():
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            # theorem2_rhs checks both binomial spellings internally
            assert theorem2_lhs(d1, d2) == theorem2_rhs(d1, d2), (d1, d2)


# -- criterion 3: refined sum vs closed form --------------------------------------


@report("criterion 3 (refined sum: enumeration = recursion = closed form)")
def test_criterion_3_refined_sum_grid():
    for D in range(1, 25):
        for d1 in range(1, 9):
            for k0 in range(1, d1 + 1):
                spec = FSumSpec(D, d1, k0)
                enumerated = f_enumerated(spec)
                assert enumerated == f_recursive(spec), (D, d1, k0)
                assert enumerated == prop3_rhs(D, d1, k0), (D, d1, k0)


# -- criterion 4: the summation formula over an exponent grid --------------------


@report("criterion 4 (q-Pfaff-Saalschutz over N in [1..8], exponents [-3..6])")
def test_criterion_4_saalschutz_grid():
    npass = ndegen = 0
    for N in range(1, 9):
        for a in range(-3, 7):
            for b in range(-3, 7):
                for c in range(-3, 7):
                    # parameters are powers of q: x-exponents are doubled
                    inst = SaalschutzInstance(2 * a, 2 * b, 2 * c, N)
                    try:
                        ok = verify_saalschutz(inst)
                    except Degenerate:
                        ndegen += 1
                        continue
                    assert ok, (a, b, c, N)
                    npass += 1
    # degenerate instances are reported, never counted as passes
    assert npass > 0 and ndegen > 0
    print(
        "criterion 4 detail: %d verified, %d degenerate (skipped)"
        % (npass, ndegen)
    )


# -- criterion 5: the proof-specific series families -------------------------------


@report("criterion 5 (proof-instance series families, parameters <= 8)")
def test_criterion_5_proof_families():
    # family one: upper q^(-2 d1), q^(-d1), q^(1-d1);
    # lower q^(1+d0-2 d1), q^(1-d0-2 d1); z = q (x-exponents doubled)
    for d0 in range(2, 9):
        for d1 in range(1, d0):
            series = PhiSeries(
                upper=(-4 * d1, -2 * d1, 2 - 2 * d1),
                lower=(2 + 2 * d0 - 4 * d1, 2 - 2 * d0 - 4 * d1),
                z_exp=2,
            )
            assert is_saalschutzian(series), (d0, d1)
            inst = SaalschutzInstance(
                a_exp=-2 * d1,
                b_exp=2 - 2 * d1,
                c_exp=2 + 2 * d0 - 4 * d1,
                N=2 * d1,
            )
            try:
                assert verify_saalschutz(inst), (d0, d1)
            except Degenerate:
                # a lower parameter hits q^0 within range exactly when the
                # prefactor qbinom(d0-d1-1, d1-1) multiplying the series
                # vanishes, so the skipped cells carry no content
                assert q_binomial(d0 - d1 - 1, d1 - 1).is_zero(), (d0, d1)
    # family two: upper q^(1+d1+d2), q^(1-d2), q^(1-d1); lower q^2, q^2; z = q
    for d1 in range(1, 9):
        for d2 in range(1, 9):
            series = PhiSeries(
                upper=(2 + 2 * d1 + 2 * d2, 2 - 2 * d2, 2 - 2 * d1),
                lower=(4, 4),
                z_exp=2,
            )
            assert is_saalschutzian(series), (d1, d2)
            inst = SaalschutzInstance(
                a_exp=2 + 2 * d1 + 2 * d2, b_exp=2 - 2 * d2, c_exp=4, N=d1 - 1
            )
            assert verify_saalschutz(inst), (d1, d2)


# -- criterion 6: combinatorial calibration ------------------------------------------


@report("criterion 6 (partition counts and q -> 1 binomial sums)")
def test_criterion_6_calibration():
    for d in range(0, 31):
        assert len(enumerate_indices(d)) == partition_count(d), d
    assert partition_count(5) == 7
    assert partition_count(10) == 42
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert q_binomial(n, k).coeff_sum() == math.comb(n, k), (n, k)


# -- criterion 7: structural properties ------------------------------------------------


@report("criterion 7 (palindromicity, symmetry, Pascal-type recurrence)")
def test_criterion_7_structure():
    for n in range(0, 21):
        for k in range(0, n + 1):
            b = q_binomial(n, k)
            assert b.reverse() == b, (n, k)
            assert b == q_binomial(n, n - k), (n, k)
    for n in range(2, 16):
        for k in range(1, n):
            rhs = LaurentPoly.monomial(1, k) * q_binomial(n - 1, k) + (
                LaurentPoly.monomial(1, k - n) * q_binomial(n - 1, k - 1)
            )
            assert q_binomial(n, k) == rhs, (n, k)
    for d0 in range(2, 13):
        for d1 in range(1, d0):
            v = theorem1_rhs(d0, d1)
            assert v.reverse() == v, (d0, d1)
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            for v in (theorem2_lhs(d1, d2), theorem2_rhs(d1, d2)):
                assert v.reverse() == v, (d1, d2)


# -- criterion 8: harness integrity ----------------------------------------------------


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qidentities.cli", *argv],
        capture_output=True,
        text=True,
    )


@report("criterion 8 (negative control fails; reruns byte-identical)")
def test_criterion_8_harness_integrity():
    args = ("verify", "--identity", "thm1", "--d0", "2..5", "--d1", "1..4")
    clean = run_cli(*args)
    assert clean.returncode == 0, clean.stderr
    corrupted = run_cli(*args, "--selftest-corrupt")
    assert corrupted.returncode == 1, corrupted.stderr
    assert '"equal":false' in corrupted.stdout
    rerun = run_cli(*args)
    assert rerun.returncode == 0
    assert rerun.stdout == clean.stdout and rerun.stderr == clean.stderr
