"""Exception types shared across the package."""


class UqcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(UqcError):
    """Malformed or out-of-contract input (bad shapes, unknown tolerances, ...)."""


class ValidationError(InvalidInput):
    """A generator of a set breaks one of its rules, which the message
    names together with the generator's index (and label)."""
