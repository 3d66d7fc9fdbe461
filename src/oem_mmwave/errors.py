"""Exception types shared across the toolkit."""


class OemError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(OemError, ValueError):
    """A configuration or design input violates its invariants."""


class DomainError(OemError, ValueError):
    """A numeric argument is outside the supported domain."""


class RankDeficientError(OemError, ValueError):
    """A link cannot be zero-forced: its base matrix B is rank deficient or a mode gain vanished."""


class NumericSingularityError(OemError, ArithmeticError):
    """A closed-form expression hit a vanishing denominator."""
