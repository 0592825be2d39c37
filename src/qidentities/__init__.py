"""Exact computation and verification of multivariate q-binomial identities.

The package works in the variable x = q^(1/2) with arbitrary-precision
integer coefficients, so every identity check is an exact polynomial (or
cross-multiplied rational-function) equality with no tolerances.
"""

from .closed_forms import SURFACE_TAGS, nlog_value, prop3_rhs, theorem1_rhs, theorem2_rhs
from .errors import (
    Degenerate,
    DivisionByZero,
    InvalidHypothesis,
    NonTerminating,
    NotDivisible,
    NotPolynomial,
    QIdentitiesError,
)
from .hypergeom import (
    PhiSeries,
    SaalschutzInstance,
    is_saalschutzian,
    phi_evaluate,
    saalschutz_rhs,
    verify_saalschutz,
)
from .laurent import ONE, ZERO, LaurentPoly, RationalFunction
from .qcombo import (
    QFactored,
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
from .sums import (
    FSumSpec,
    PartitionedIndex,
    enumerate_indices,
    f_enumerated,
    f_recursive,
    f_term,
    theorem1_lhs,
    theorem2_lhs,
)

__all__ = [
    "Degenerate",
    "DivisionByZero",
    "FSumSpec",
    "InvalidHypothesis",
    "LaurentPoly",
    "NonTerminating",
    "NotDivisible",
    "NotPolynomial",
    "ONE",
    "PartitionedIndex",
    "PhiSeries",
    "QFactored",
    "QIdentitiesError",
    "RationalFunction",
    "SURFACE_TAGS",
    "SaalschutzInstance",
    "ZERO",
    "enumerate_indices",
    "f_enumerated",
    "f_recursive",
    "f_term",
    "is_saalschutzian",
    "nlog_value",
    "phi_evaluate",
    "prop3_rhs",
    "q_binomial",
    "q_binomial_factored",
    "q_binomial_signed",
    "q_int",
    "q_pochhammer",
    "qf_div",
    "qf_expand",
    "qf_expand_ratio",
    "qf_mul",
    "qf_to_rational",
    "saalschutz_rhs",
    "theorem1_lhs",
    "theorem1_rhs",
    "theorem2_lhs",
    "theorem2_rhs",
    "verify_saalschutz",
]
