"""Error taxonomy shared by all braidseed modules.

Every failure mode that callers are expected to handle has its own class so
that the CLI can map any BraidseedError to exit code 2 while tests can pin
the precise condition.  It also holds the two rules every layer shares:
as_int, the one integer rule, and default_budget, the one budget setting.
"""
from __future__ import annotations

import os
from operator import index


class BraidseedError(Exception):
    """Base class for all library errors."""


# Cartan layer.
class NotGCM(BraidseedError):
    pass


class NotSymmetrizable(BraidseedError):
    pass


class DimensionMismatch(BraidseedError):
    pass


class NotFiniteType(BraidseedError):
    pass


# Word and move layer.
class MoveNotApplicable(BraidseedError):
    pass


class UnsupportedCartanPair(BraidseedError):
    """A 6-move pattern (c_ij * c_ji = 3) would be required; excluded by design."""


class BudgetExhausted(BraidseedError):
    pass


class NotConnected(BraidseedError):
    """Move-graph search failed to reach the target word.

    ``definitive`` is True when the whole component was enumerated, in which
    case the two words represent different monoid elements; False means the
    node budget ran out first and the answer is indeterminate.
    """

    def __init__(self, message: str, definitive: bool):
        super().__init__(message)
        self.definitive = definitive


class InvalidBox(BraidseedError):
    pass


# Order and transition layer.
class LengthMismatch(BraidseedError):
    pass


class IncomparableLeadingTerms(BraidseedError):
    pass


class NegativeEntry(BraidseedError):
    pass


class CaseNotTabulated(BraidseedError):
    pass


# Seed layer.
class NoIntegralSolution(BraidseedError):
    pass


class ShapeMismatch(BraidseedError):
    pass


class ContextMismatch(BraidseedError):
    pass


class FrozenIndex(BraidseedError):
    pass


class NonExactDivision(BraidseedError):
    pass


class NotRepresentable(BraidseedError):
    """A coefficient entry or exponent that is not an integer, or an
    exponent that a torus element's packed keys cannot hold."""


class ExchangeSetNotPreserved(BraidseedError):
    pass


class MinorNotReachable(BraidseedError):
    pass


# Q-datum layer.
class NotSimplyLaced(BraidseedError):
    pass


class HeightParityViolation(BraidseedError):
    pass


class NotASource(BraidseedError):
    pass


class PointOutsideLattice(BraidseedError):
    pass


class SeriesOrderInsufficient(BraidseedError):
    pass


class NonContiguousWindow(BraidseedError):
    pass


class NotInvertibleAtOrder(BraidseedError):
    pass


# CLI layer.
class ConfigInvalid(BraidseedError):
    pass


def as_int(value, error: type, *name) -> int:
    """value as an int: whatever operator.index accepts (ints, bools and
    integer scalars such as numpy's).  Anything else is refused with error,
    "<name> <value> is not an integer", the parts of name joined, and
    formatted only on refusal.  The one integer rule of the library."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{''.join(map(str, name))} {value!r} is not an integer") from None


DEFAULT_BUDGET = 200_000
BUDGET_ENV = "BRAIDSEED_BUDGET"


def default_budget() -> int:
    """The search budget: BRAIDSEED_BUDGET when set, else DEFAULT_BUDGET.
    A value that is not an integer, or is below 1, is ConfigInvalid."""
    raw = os.environ.get(BUDGET_ENV)
    try:
        budget = int(raw) if raw else DEFAULT_BUDGET
    except ValueError as err:
        raise ConfigInvalid(f"{BUDGET_ENV}: expected an integer, got {raw!r}") from err
    if budget < 1:
        raise ConfigInvalid(f"{BUDGET_ENV}: must be >= 1, got {budget}")
    return budget
