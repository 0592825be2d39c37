"""Exception types shared across the package, and each identity's domain.

Degenerate is the one degeneracy signal.  HYPOTHESES states every
identity's parameter names and its hypothesis once: the CLI registry's
params and holds are its entries, and require reads one identity's
values and checks them against it for every side that takes them (the
theorems' left-hand sides, summands and closed forms, and Proposition
3's closed form).  _as_int is the one rule by which the value types'
constructors, the q-symbol builders and those sides read an integer
argument.
"""


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


def _as_int(value, field: str) -> int:
    """value as the int it equals: an int as it is, another value equal to
    an int (2.0, Fraction(4, 2)) that int.  Any other value raises
    ValueError naming field, so no constructor truncates 2.5 to 2."""
    if value.__class__ is int:
        return value
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return n


# Per identity: its parameter names, in flag, grid-axis and JSON-key order,
# and its hypothesis, a predicate on the values in that order.  D is
# Proposition 3's doubled first parameter; a q-Saalschutz instance with
# N < 0 is also refused by its own constructor.
HYPOTHESES = {
    "thm1": (("d0", "d1"), lambda d0, d1: d0 > d1 >= 1),
    "thm2": (("d1", "d2"), lambda d1, d2: d1 >= 1 and d2 >= 1),
    "prop3": (("D", "d1", "k0"), lambda D, d1, k0: D >= 1 and 1 <= k0 <= d1),
    "saalschutz": (("a", "b", "c", "N"), lambda a, b, c, N: N >= 0),
}


def require(identity: str, *values) -> tuple:
    """The named identity's values as ints, each read by _as_int under its
    parameter's name.  Raises InvalidHypothesis naming every value when
    they lie outside the identity's hypothesis."""
    params, holds = HYPOTHESES[identity]
    values = tuple(map(_as_int, values, params))
    if not holds(*values):
        named = ", ".join("%s=%d" % p for p in zip(params, values))
        raise InvalidHypothesis("outside the %s hypothesis: %s" % (identity, named))
    return values
