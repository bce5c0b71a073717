"""Exception types shared across the package."""


class UqcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(UqcError):
    """Malformed or out-of-contract input (bad shapes, unknown tolerances, ...)."""


class ValidationError(InvalidInput):
    """A generator-set invariant is violated.

    ``generator_index`` identifies the offending generator (0-based), or is
    None when the problem is not tied to a single generator.
    """

    def __init__(self, message, generator_index=None):
        super().__init__(message)
        self.generator_index = generator_index
