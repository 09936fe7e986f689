"""Shared exception types."""


class QDepthError(Exception):
    """Base class for all package errors."""


class CapacityError(QDepthError):
    """A state or table would exceed the configured size limits."""


class DepthBudgetExceeded(QDepthError):
    """A hybrid scheme attempted more quantum depth than its budget allows."""


class SchemeViolation(QDepthError):
    """An execution broke the structural rules of its hybrid scheme."""


class ProtocolOrderError(QDepthError):
    """A prover strategy sent or requested messages out of protocol order."""


class ConfigError(QDepthError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

