"""Exception hierarchy shared by all stirling modules."""


class StirlingError(Exception):
    """Base class for every error raised by this package."""


class DomainError(StirlingError):
    """Argument outside the mathematical domain of the operation."""


class PrecisionError(StirlingError):
    """Precision context unusable (too few bits, malformed setting)."""


class ResourceError(StirlingError):
    """Request exceeds a configured table/size cap."""


class ValidityError(StirlingError):
    """Index below the stated validity range of an inequality family."""


class InconclusiveError(StirlingError):
    """Margin smaller than the arithmetic error envelope; no verdict.

    ``family`` and ``n`` name the inequality instance, ``margin`` is its
    signed margin and ``envelope`` the error envelope the margin failed to
    clear (both BigFloat).  Fields not supplied by the raiser are None.
    """

    def __init__(self, message: str = "", *, family: str | None = None,
                 n: int | None = None, margin=None, envelope=None):
        super().__init__(message)
        self.family = family
        self.n = n
        self.margin = margin
        self.envelope = envelope


class ConvergenceError(StirlingError):
    """Iterative scheme failed to reach the requested accuracy in budget."""
