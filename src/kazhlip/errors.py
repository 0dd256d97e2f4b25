"""Exception hierarchy shared by all modules, and the rules for the number
of working digits. Those need no mpmath, so the commands that compute no
reals check them without importing it.

Exit-code mapping in the CLI: DomainError and ResourceLimitError -> 1,
SchemaError -> 2. Exit 3 is no exception: `bound` and `sweep` return it
when the generating set has a global fixed point.
"""

import os

DEFAULT_DIGITS = 30
MIN_DIGITS = 15


class KazhlipError(Exception):
    pass


class DomainError(KazhlipError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SchemaError(KazhlipError, ValueError):
    """An input file or JSON object does not match the expected schema."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ResourceLimitError(KazhlipError, RuntimeError):
    """An enumeration exceeded its configured cap."""


def check_digits(digits: int) -> int:
    """`digits`, if it is a valid working precision; else DomainError."""
    if digits < MIN_DIGITS:
        raise DomainError(f"precision must be >= {MIN_DIGITS}, got {digits}")
    return digits


def env_precision():
    """The digits KAZHLIP_PRECISION names, or None when it is unset. A value
    that is not an integer >= MIN_DIGITS raises DomainError."""
    raw = os.environ.get("KAZHLIP_PRECISION")
    if raw is None:
        return None
    try:
        digits = int(raw)
    except ValueError as exc:
        raise DomainError(f"KAZHLIP_PRECISION must be an integer, got {raw[:40]!r}") from exc
    if digits < MIN_DIGITS:
        raise DomainError(f"KAZHLIP_PRECISION must be >= {MIN_DIGITS}, got {digits}")
    return digits
