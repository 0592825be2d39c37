"""Shared test setup: every test starts with cold process-wide caches."""

import pytest

from qidentities import qcombo, sums


@pytest.fixture(autouse=True)
def cold_caches():
    """Clear the q-binomial caches, qf_expand's memo, the refined-sum memo
    and the index memo before each test, so no test depends on another
    test's warm cache (or sees values a monkeypatched function left in
    one)."""
    for cached in (
        qcombo._expanded,
        qcombo.q_binomial,
        qcombo.q_binomial_signed,
        sums._refined,
        sums._sorted_indices,
    ):
        cached.cache_clear()
