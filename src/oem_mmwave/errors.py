"""Exception types shared across the toolkit."""


class OemError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(OemError, ValueError):
    """A configuration or design input violates its invariants."""


class DomainError(OemError, ValueError):
    """A numeric argument is outside the supported domain."""


class AliasRiskError(OemError, ValueError):
    """Mode decomposition requested with fewer receive elements than modes."""


class RankDeficientError(OemError, ValueError):
    """A per-mode channel matrix is too ill-conditioned to invert."""


class NumericSingularityError(OemError, ArithmeticError):
    """A closed-form expression hit a vanishing denominator."""
