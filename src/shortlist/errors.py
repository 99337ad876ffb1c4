"""Exception types shared across the package."""


class ShortlistError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ShortlistError, ValueError):
    """Objects built over different item universes were combined, or an item lies outside ``0..m-1``."""


class DomainError(ShortlistError, ValueError):
    """An argument is outside the domain an operation is defined on, such as an item given twice."""


class CapacityError(ShortlistError, RuntimeError):
    """An exact computation would exceed its enumeration budget."""


class ProfileParseError(ShortlistError, ValueError):
    """A preference-profile source could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
