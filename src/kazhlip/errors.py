"""Exception hierarchy shared by all modules.

Exit-code mapping in the CLI: DomainError and ResourceLimitError -> 1,
SchemaError -> 2. Exit 3 is no exception: `bound` and `sweep` return it
when the generating set has a global fixed point.
"""


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

