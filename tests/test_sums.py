"""Tests for partition-index enumeration, the refined sum, and the theorem
left-hand sides."""

import json

import pytest

from qidentities import (
    FSumSpec,
    InvalidHypothesis,
    LaurentPoly,
    ONE,
    PartitionedIndex,
    ZERO,
    enumerate_indices,
    f_enumerated,
    f_recursive,
    f_term,
    prop3_rhs,
    q_binomial,
    theorem1_lhs,
    theorem1_rhs,
    theorem2_lhs,
    theorem2_rhs,
)


def partition_count(n: int) -> int:
    """Independent DP for the ordinary partition numbers p(n)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# -- index validation ------------------------------------------------------------


def test_index_validation():
    idx = PartitionedIndex((3, 1), (2, 1))
    assert idx.mult_sum() == 3
    assert idx.to_json_obj() == {"parts": [3, 1], "mults": [2, 1]}
    assert PartitionedIndex((), ()).mult_sum() == 0
    with pytest.raises(ValueError):
        PartitionedIndex((), (1,))
    with pytest.raises(ValueError):
        PartitionedIndex((1, 2), (1, 1))
    with pytest.raises(ValueError):
        PartitionedIndex((2,), (0,))
    with pytest.raises(ValueError):
        PartitionedIndex((0,), (1,))


def test_fsumspec_validation():
    with pytest.raises(ValueError):
        FSumSpec(4, -1, 0)
    with pytest.raises(ValueError):
        FSumSpec(4, 0, -1)


# -- enumeration -------------------------------------------------------------------


def test_enumerate_small_cases():
    found = enumerate_indices(2)
    assert [idx.to_json_obj() for idx in found] == [
        {"parts": [2], "mults": [1]},
        {"parts": [1], "mults": [2]},
    ]
    assert len(enumerate_indices(5)) == partition_count(5) == 7


def test_enumerate_with_multiplicity_constraint():
    found = enumerate_indices(3, 2)
    assert len(found) == 1
    assert found[0] == PartitionedIndex((2, 1), (1, 1))


def test_enumerate_order():
    # longer sequences precede their own prefixes; otherwise descending-lex
    found = enumerate_indices(4)
    assert [idx.to_json_obj() for idx in found] == [
        {"parts": [4], "mults": [1]},
        {"parts": [3, 1], "mults": [1, 1]},
        {"parts": [2, 1], "mults": [1, 2]},
        {"parts": [2], "mults": [2]},
        {"parts": [1], "mults": [4]},
    ]


def test_enumerate_counts_match_partition_dp():
    for d in range(1, 31):
        assert len(enumerate_indices(d)) == partition_count(d)


def test_enumerate_counts_split_by_multiplicity():
    for d in range(1, 16):
        total = sum(len(enumerate_indices(d, k0)) for k0 in range(1, d + 1))
        assert total == partition_count(d)


def test_enumerate_rejects_negative_and_gives_the_empty_index_at_zero():
    with pytest.raises(ValueError):
        enumerate_indices(-1)
    assert enumerate_indices(0) == [PartitionedIndex((), ())]


# -- the refined sum -----------------------------------------------------------------


def test_f_term_single_factor():
    idx = PartitionedIndex((1,), (1,))
    assert f_term(4, idx) == q_binomial(4, 1)
    for D in (3, 5, 9):
        idx = PartitionedIndex((4,), (2,))
        assert f_term(D, idx) == q_binomial(D, 2)


def test_f_term_two_factors():
    idx = PartitionedIndex((2, 1), (1, 1))
    assert f_term(6, idx) == q_binomial(6, 1) * q_binomial(4, 1)


def test_f_conventions():
    assert f_term(6, PartitionedIndex((), ())) == ONE
    assert f_enumerated(FSumSpec(6, 0, 0)) == ONE
    assert f_enumerated(FSumSpec(6, 3, 0)) == ZERO
    assert f_enumerated(FSumSpec(6, 0, 2)) == ZERO
    assert f_enumerated(FSumSpec(6, 3, 5)) == ZERO
    assert f_recursive(FSumSpec(6, 0, 0)) == ONE
    assert f_recursive(FSumSpec(6, 3, 0)) == ZERO
    assert f_recursive(FSumSpec(6, 0, 2)) == ZERO


def test_f_multiplicity_one_collapses():
    for D in (5, 8, 13):
        for d1 in range(1, 6):
            assert f_enumerated(FSumSpec(D, d1, 1)) == q_binomial(D, 1)
            assert f_recursive(FSumSpec(D, d1, 1)) == q_binomial(D, 1)


def test_f_worked_example():
    value = f_enumerated(FSumSpec(8, 2, 2))
    assert value == q_binomial(8, 2)
    assert value == prop3_rhs(8, 2, 2)


def test_f_recursive_matches_enumeration():
    assert f_recursive(FSumSpec(10, 4, 2)) == f_enumerated(FSumSpec(10, 4, 2))
    for D in range(1, 13):
        for d1 in range(1, 6):
            for k0 in range(1, d1 + 1):
                spec = FSumSpec(D, d1, k0)
                assert f_recursive(spec) == f_enumerated(spec)


def test_f_recursive_memo_per_D():
    from qidentities import sums

    # f(D, 4, 2) calls _refined at (d1, k0) = (4, 2), (2, 1), (1, 0), (0, 0),
    # (0, 1), (2, 0) and (0, 0) again: 6 misses and 1 hit.  f(D, 5, 3) calls
    # it at (5, 3), (2, 2), (0, 1), (0, 0), (2, 1), (2, 0): with D = 9 warm,
    # only (5, 3) and (2, 2) miss.  D = 10 reuses nothing from D = 9.
    specs = (FSumSpec(9, 4, 2), FSumSpec(9, 5, 3), FSumSpec(10, 4, 2))
    for spec, counts in zip(specs, [(1, 6), (5, 8), (6, 14)]):
        assert f_recursive(spec) == f_enumerated(spec)
        info = sums._refined.cache_info()
        assert (info.hits, info.misses) == counts
    assert info.currsize == 14


# -- theorem left-hand sides -----------------------------------------------------------


def test_theorem1_lhs_small_values():
    assert theorem1_lhs(2, 1) == LaurentPoly({3: 1, 1: 1, -1: 1, -3: 1})
    # d0=3, d1=1: single index n1=2, k1=1, k0=0
    assert theorem1_lhs(3, 1) == q_binomial(6, 1) * q_binomial(2, 0)


def test_theorem1_lhs_hypothesis():
    with pytest.raises(InvalidHypothesis):
        theorem1_lhs(2, 2)
    with pytest.raises(InvalidHypothesis):
        theorem1_lhs(3, 0)


def test_theorem2_lhs_small_values():
    assert theorem2_lhs(1, 1) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert theorem2_lhs(2, 1) == theorem2_rhs(2, 1)


def test_theorem2_lhs_hypothesis():
    with pytest.raises(InvalidHypothesis):
        theorem2_lhs(0, 3)
    with pytest.raises(InvalidHypothesis):
        theorem2_lhs(3, 0)


def test_theorem_lhs_matches_rhs_small_grid():
    for d0 in range(2, 8):
        for d1 in range(1, d0):
            assert theorem1_lhs(d0, d1) == theorem1_rhs(d0, d1)
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            assert theorem2_lhs(d1, d2) == theorem2_rhs(d1, d2)


def test_lhs_values_palindromic():
    for d0 in range(2, 7):
        for d1 in range(1, d0):
            v = theorem1_lhs(d0, d1)
            assert v.reverse() == v
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            v = theorem2_lhs(d1, d2)
            assert v.reverse() == v


def test_theorem_terms_match_a_literal_transcription():
    # each theorem's summands written out from enumerate_indices, f_term
    # and q_binomial alone: thm1 leaves out an index with sum k_i > d1,
    # thm2 lists one with sum k_i > d2 as a zero summand
    from qidentities.sums import theorem1_terms, theorem2_terms

    left_out = 0
    for d0 in range(2, 10):
        for d1 in range(1, d0):
            expected = []
            for idx in enumerate_indices(d0 - d1):
                k0 = d1 - sum(idx.mults)
                if k0 < 0:
                    left_out += 1
                    continue
                label = {"k0": k0, "parts": list(idx.parts), "mults": list(idx.mults)}
                expected.append((label, f_term(2 * d0, idx) * q_binomial(2 * d1, k0)))
            assert list(theorem1_terms(d0, d1)) == expected, (d0, d1)
    assert left_out > 0
    zero_summands = 0
    for d1 in range(1, 8):
        for d2 in range(1, 7):
            expected = []
            for idx in enumerate_indices(d1):
                label = {"parts": list(idx.parts), "mults": list(idx.mults)}
                term = f_term(2 * d1 + d2, idx) * q_binomial(d2, sum(idx.mults))
                if sum(idx.mults) > d2:
                    assert term.is_zero()
                    zero_summands += 1
                expected.append((label, term))
            assert list(theorem2_terms(d1, d2)) == expected, (d1, d2)
    assert zero_summands > 0


def test_refined_path_is_the_memoized_recursion(monkeypatch, capsys):
    # path (b) of theorem*_lhs goes through f_recursive, whose values stay
    # in the _refined memo under (D, d1, k0), and a wrong refined value is
    # caught by the two-path check
    from qidentities import sums
    from qidentities.cli import main

    real = sums.f_recursive
    specs = []

    def recording(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(sums, "f_recursive", recording)
    assert theorem1_lhs(5, 2) == theorem1_rhs(5, 2)
    assert theorem2_lhs(3, 2) == theorem2_rhs(3, 2)
    # thm1 (5, 2): D = 10, k0 = 0..2; thm2 (3, 2): D = 8, k = 1..2, since
    # the k = 3 slice has trailing factor [2, 3] = 0 and is skipped; each
    # value path (b) used is still memoized, so looking it up again hits
    assert [spec.D for spec in specs] == [10] * 3 + [8] * 2
    before = sums._refined.cache_info()
    assert all(sums._refined(*spec) is real(spec) for spec in specs)
    after = sums._refined.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (10, 0)

    def perturbed(spec):
        return real(spec) + ONE

    monkeypatch.setattr(sums, "f_recursive", perturbed)
    with pytest.raises(ArithmeticError, match="theorem1_lhs"):
        theorem1_lhs(5, 2)
    with pytest.raises(ArithmeticError, match="theorem2_lhs"):
        theorem2_lhs(3, 2)
    assert main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert json.loads(lines[-1]) == {"pass": 0, "fail": 2, "degenerate": 0}
    for record in records:
        assert record["equal"] is False and record["lhs"] is None
        assert record["error"].startswith("ArithmeticError: internal disagreement")



def test_prop3_lhs_is_checked_by_two_paths(monkeypatch, capsys):
    # verify prop3's left-hand side is the refined sum by both paths, so a
    # wrong recursion is caught before the closed form is compared
    from qidentities import prop3_lhs, sums
    from qidentities.cli import main

    assert prop3_lhs(8, 2, 2) == f_enumerated(FSumSpec(8, 2, 2)) == prop3_rhs(8, 2, 2)
    real = sums._refined
    monkeypatch.setattr(sums, "_refined", lambda D, d1, k0: real(D, d1, k0) + ONE)
    with pytest.raises(ArithmeticError, match=r"prop3_lhs\(8, 2, 2\)"):
        prop3_lhs(8, 2, 2)
    argv = ["verify", "--identity", "prop3", "--D", "3", "--d1", "1..2", "--k0", "1..2"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"pass": 0, "fail": 3, "degenerate": 1}
    for record in map(json.loads, lines[:-1]):
        assert record["equal"] is False and record["lhs"] is None
        where = "prop3_lhs(3, %(d1)d, %(k0)d)" % record["params"]
        assert record["error"] == "ArithmeticError: internal disagreement in " + where


def test_each_slice_is_checked_by_two_paths(monkeypatch, capsys):
    # theorem2_lhs(3, 3) = sum_k f(9, 3, k) [3, k]: shifting f(9, 3, 1) by
    # +[3, 2] and f(9, 3, 2) by -[3, 1] leaves the sum unchanged, so a check
    # of the two totals alone passes it, and the left-hand side still equals
    # the right-hand side; the per-slice check fails it
    from qidentities import sums
    from qidentities.cli import main

    real = sums.f_recursive
    shifts = {FSumSpec(9, 3, 1): q_binomial(3, 2), FSumSpec(9, 3, 2): -q_binomial(3, 1)}
    monkeypatch.setattr(sums, "f_recursive", lambda spec: real(spec) + shifts.get(spec, ZERO))
    assert sum((shifts[spec] * q_binomial(3, spec.k0) for spec in shifts), ZERO).is_zero()
    with pytest.raises(ArithmeticError, match=r"theorem2_lhs\(3, 3\)"):
        theorem2_lhs(3, 3)
    assert main(["verify", "--identity", "thm2", "--d1", "3", "--d2", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"pass": 0, "fail": 1, "degenerate": 0}
    record = json.loads(lines[0])
    assert record["equal"] is False and record["lhs"] is None
    assert record["error"] == "ArithmeticError: internal disagreement in theorem2_lhs(3, 3)"


@pytest.mark.parametrize("argv", [
    ["--identity", "prop3", "--D", "1..24", "--d1", "1..8", "--k0", "1..8"],
    ["--identity", "thm2", "--d1", "1..10", "--d2", "1..10"],
], ids=["prop3", "thm2"])
def test_no_multiply_by_one(monkeypatch, capsys, argv):
    # f_term, _refined and the per-slice sum all skip a factor of 1, so no
    # LaurentPoly multiply on these grids has an operand equal to 1
    from qidentities.cli import main

    real = LaurentPoly.__mul__
    by_one = []  # per multiply: does an operand equal 1?

    def recording(a, b):
        by_one.append(a == ONE or b == ONE)
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recording)
    assert main(["verify"] + argv) == 0
    capsys.readouterr()
    assert by_one and not any(by_one)


@pytest.mark.parametrize("argv", [
    ["--identity", "prop3", "--D", "1..24", "--d1", "1..8", "--k0", "1..8"],
    ["--identity", "thm1", "--d0", "2..12", "--d1", "1..11"],
], ids=["prop3", "thm1"])
def test_no_multiply_by_zero(monkeypatch, capsys, argv):
    # f_term stops at a zero factor, _refined skips a zero q-binomial and the
    # per-slice sum a zero slice, so no LaurentPoly multiply on these grids
    # has a zero operand (prop3 reaches zero binomials [m, k], 0 <= m < k,
    # at small D; thm1 lists slices k > d, which are 0)
    from qidentities.cli import main

    real = LaurentPoly.__mul__
    by_zero = []  # per multiply: is an operand 0?

    def recording(a, b):
        by_zero.append(a.is_zero() or b.is_zero())
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", recording)
    assert main(["verify"] + argv) == 0
    capsys.readouterr()
    assert by_zero and not any(by_zero)


# -- memos shared across calls ---------------------------------------------------


def test_lhs_same_with_cold_and_warm_refined_memo():
    # thm1 (4, *) and thm2 (3, 2), (2, 4) share D = 8; thm2 (3, 1) and
    # (2, 3) share D = 7
    from qidentities import sums

    cells = [(theorem1_lhs, 4, 1), (theorem1_lhs, 4, 3), (theorem2_lhs, 3, 2),
             (theorem2_lhs, 2, 4), (theorem2_lhs, 3, 1), (theorem2_lhs, 2, 3),
             (theorem1_lhs, 4, 2)]
    cold = []
    for fn, p, r in cells:
        sums._refined.cache_clear()
        cold.append(fn(p, r))
    sums._refined.cache_clear()
    warm = [fn(p, r) for fn, p, r in cells]
    assert warm == cold
    # thm1 (4, d1) makes d1 + 1 f_recursive calls (k0 = 0..d1) and thm2
    # (d1, d2) makes min(d1, d2) (k = 1..min(d1, d2): a slice with k > d2
    # has trailing factor [d2, k] = 0 and is skipped): 16 _refined calls.
    # Each (d1, k0) it computes with both nonzero calls _refined
    # k0 * (d1 // k0) more times: (3, 1), (2, 1), (2, 2) at both D, 7 calls
    # each, and (1, 1), (3, 2) at D = 8, 3 calls, while (1, 3) and (1, 2) at
    # D = 8 make none.  Of those 33 calls, one per distinct key misses: 12
    # keys at D = 8 and 7 at D = 7, base cases included; the other 14 hit.
    info = sums._refined.cache_info()
    assert (info.hits, info.misses) == (14, 19)
    rhs = {theorem1_lhs: theorem1_rhs, theorem2_lhs: theorem2_rhs}
    assert warm == [rhs[fn](p, r) for fn, p, r in cells]


def test_memos_stay_within_their_bounds():
    from qidentities import sums

    # each f(D, 1, 1) = [D, 1] reaches two new keys, (D, 1, 1) and (D, 0, 0)
    bound = sums.REFINED_CACHE_SIZE
    sweep = range(-bound // 2 - 5, bound // 2 + 5)
    for D in sweep:
        f_recursive(FSumSpec(D, 1, 1))
    info = sums._refined.cache_info()
    assert info.maxsize == bound
    assert info.misses == 2 * len(sweep) and info.currsize == bound
    for d in range(1, sums.INDEX_CACHE_SIZE + 5):
        assert len(enumerate_indices(d)) == partition_count(d)
    info = sums._sorted_indices.cache_info()
    assert info.maxsize == sums.INDEX_CACHE_SIZE
    assert info.currsize == sums.INDEX_CACHE_SIZE


def test_enumerate_indices_returns_a_fresh_list():
    first = enumerate_indices(6)
    expected = list(first)
    first.reverse()
    first.append(PartitionedIndex((9,), (1,)))
    assert enumerate_indices(6) == expected
    some = enumerate_indices(6, 3)
    kept = list(some)
    some.clear()
    assert enumerate_indices(6, 3) == kept
    assert kept == [idx for idx in expected if idx.mult_sum() == 3]
