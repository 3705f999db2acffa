"""Exception hierarchy shared by all extopt modules."""


class ExtoptError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ExtoptError, ValueError):
    """Invalid input: bad parameter values, malformed rationals, out-of-range arguments."""


class TrivialRegimeError(ExtoptError, ValueError):
    """The mass budget is at least n*x, where the minimization is trivial."""


class StabilityError(ExtoptError, ValueError):
    """Queue utilization is at or above one, so the moment formulas do not apply."""


class SizeCapError(ExtoptError, ValueError):
    """An enumeration would exceed its configured size cap."""


class ConstructionError(ExtoptError, RuntimeError):
    """A closed-form construction could not be realized, or an exact self-check
    of a result failed (internal invariant violation)."""
