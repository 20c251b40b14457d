"""Exception types shared across the package."""


class CommlabError(Exception):
    """Base class for all commlab errors."""


class InvalidInputError(CommlabError):
    """Malformed argument or object state (CLI exit code 2)."""


class UncoveredCellError(InvalidInputError):
    """A cell has no covering box where one is required."""


class InvalidSelectorError(InvalidInputError):
    """Selector does not map every cell to a containing box."""


class InvalidTreeError(InvalidInputError):
    """Protocol tree node violates the two-way split discipline."""


class SchemaError(InvalidInputError):
    """Instance file fails schema or invariant validation."""


class GenerationFailureError(CommlabError):
    """Randomized generator exhausted its rejection budget."""


class DegenerateInstanceError(CommlabError):
    """Instance carries no usable probability mass (e.g. empty GOOD set)."""


class SolverTimeoutError(CommlabError):
    """Exact search ran out of budget; carries best bounds (CLI exit code 3)."""

    def __init__(self, message: str, lower: int, upper: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
