"""Exception types shared across the package; Degenerate is the one degeneracy signal."""


class QIdentitiesError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(QIdentitiesError):
    """Division by a zero polynomial, fraction, or factored value."""


class NotDivisible(QIdentitiesError):
    """No exact Laurent-polynomial quotient exists."""


class InvalidHypothesis(QIdentitiesError):
    """Parameters outside the hypothesis of the identity being evaluated."""


class NonTerminating(QIdentitiesError):
    """A basic hypergeometric series without a terminating upper parameter."""


class Degenerate(QIdentitiesError):
    """A lower-parameter Pochhammer symbol vanishes in range: skip the instance."""
