"""Exception types shared across the workbench."""

from __future__ import annotations

__all__ = [
    "SumdiffError",
    "GroupMismatchError",
    "EmptySetError",
    "InvalidElementError",
    "CapExceededError",
    "HypothesisViolationError",
    "CertificateError",
    "ParseError",
]


class SumdiffError(Exception):
    """Base class for all workbench-specific failures."""


class GroupMismatchError(SumdiffError):
    """Two operands live in different groups."""


class EmptySetError(SumdiffError):
    """An operation that requires a non-empty set received an empty one."""


class InvalidElementError(SumdiffError):
    """An element index is outside [0, N) for its group."""


class CapExceededError(SumdiffError):
    """An exhaustive search would exceed its configured resource cap."""


class HypothesisViolationError(SumdiffError):
    """The minimizer equality hypothesis fails; carries the violating subset."""

    def __init__(self, message: str, violating=None):
        super().__init__(message)
        self.violating = violating


class CertificateError(SumdiffError):
    """An equality trace produced a certificate that fails validation.

    This indicates an internal inconsistency, not bad user input.
    """


class ParseError(SumdiffError):
    """A literal failed to parse; carries the offending position."""

    def __init__(self, message: str, text: str = "", position: int = 0):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.text:
            return f"{base} (at position {self.position} in {self.text!r})"
        return base
