"""Exception types shared across the package."""


class EmptyFamilyError(ValueError):
    """An operation that needs a non-empty interval family got an empty one."""


class ZeroInputError(ValueError):
    """The zero expansion was passed where a nonzero one is required."""


class DegenerateThetaError(ValueError):
    """The interpolation exponent degenerates (p = q forces theta = 1)."""


class VerificationError(RuntimeError):
    """A constructed object failed its mandatory post-hoc verification.

    `report` is the failed report object where there is one (the
    `DecompositionReport` of a decomposition `decompose` refused), else None.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class ExpansionFormatError(ValueError):
    """An expansion file is malformed or violates its schema."""
