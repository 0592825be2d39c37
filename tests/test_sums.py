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
    assert idx.m == 2
    assert idx.weighted_sum() == 7
    assert idx.mult_sum() == 3
    assert idx.to_json_obj() == {"parts": [3, 1], "mults": [2, 1]}
    with pytest.raises(ValueError):
        PartitionedIndex((), ())
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


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_indices(0)


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
    assert f_enumerated(FSumSpec(6, 0, 0)) == ONE
    assert f_enumerated(FSumSpec(6, 3, 0)) == ZERO
    assert f_enumerated(FSumSpec(6, 0, 2)) == ZERO
    assert f_enumerated(FSumSpec(6, 3, 5)) == ZERO
    assert f_recursive(FSumSpec(6, 0, 0)) == ONE
    assert f_recursive(FSumSpec(6, 3, 0)) == ZERO


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


def test_f_recursive_shared_cache_scoping():
    cache = {}
    f_recursive(FSumSpec(9, 4, 2), cache)
    f_recursive(FSumSpec(9, 5, 3), cache)  # same D: fine
    with pytest.raises(ValueError):
        f_recursive(FSumSpec(10, 4, 2), cache)


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


def test_refined_path_is_the_memoized_recursion(monkeypatch, capsys):
    # path (b) of theorem*_lhs goes through f_recursive with one cache per
    # call, and a wrong refined value is caught by the two-path check
    from qidentities import sums
    from qidentities.cli import main

    real = sums.f_recursive
    caches = []

    def recording(spec, cache=None):
        caches.append(cache)
        return real(spec, cache)

    monkeypatch.setattr(sums, "f_recursive", recording)
    assert theorem1_lhs(5, 2) == theorem1_rhs(5, 2)
    assert theorem2_lhs(3, 2) == theorem2_rhs(3, 2)
    # thm1 (5, 2): k0 = 0..2; thm2 (3, 2): k0 = 1..3; one cache each
    assert len(caches) == 6
    assert all(c is caches[0] for c in caches[:3])
    assert all(c is caches[3] for c in caches[3:])
    assert caches[0] is not caches[3]

    def perturbed(spec, cache=None):
        return real(spec, cache) + ONE

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
        sums._refined_memo.cache_clear()
        cold.append(fn(p, r))
    sums._refined_memo.cache_clear()
    warm = [fn(p, r) for fn, p, r in cells]
    assert warm == cold
    assert sums._refined_memo.cache_info().hits == 5
    rhs = {theorem1_lhs: theorem1_rhs, theorem2_lhs: theorem2_rhs}
    assert warm == [rhs[fn](p, r) for fn, p, r in cells]


def test_memos_stay_within_their_bounds():
    from qidentities import sums

    for d2 in range(1, sums.REFINED_CACHE_SIZE + 6):
        assert theorem2_lhs(1, d2) == theorem2_rhs(1, d2)
    info = sums._refined_memo.cache_info()
    assert info.maxsize == sums.REFINED_CACHE_SIZE
    assert info.currsize == sums.REFINED_CACHE_SIZE
    assert info.misses == sums.REFINED_CACHE_SIZE + 5
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
