"""Shared test setup: every test starts with cold process-wide caches."""

import pytest

from qidentities import hypergeom, qcombo, sums

# every module-level cache of the package: the q-binomial caches,
# qf_expand's memo, the refined-sum memo, the index memo and
# phi_evaluate's series memo
CACHES = (
    qcombo._expanded,
    qcombo.q_binomial,
    qcombo.q_binomial_signed,
    sums._refined,
    sums._sorted_indices,
    hypergeom._phi_sums,
)


def clear_caches():
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Clear every cache in CACHES before each test, so no test depends on
    another test's warm cache (or sees values a monkeypatched function
    left in one)."""
    clear_caches()
