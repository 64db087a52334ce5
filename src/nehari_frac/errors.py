"""Exception types shared across the package."""


class NehariFracError(Exception):
    """Base class for all package-specific errors."""


class GridTooLargeError(NehariFracError):
    """Building the p != 2 weight slabs of the requested lattice would exceed the memory budget."""


class ZeroPairError(NehariFracError):
    """Raised when a fibering operation receives the zero pair."""


class ConvergenceError(NehariFracError):
    """An iterative solver exhausted its budget.

    The last iterate, and its value where the solver has one, are attached
    so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None, last_value=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.last_value = last_value


class SupportError(NehariFracError):
    """A bubble support ball does not fit inside the interior region, or holds no interior node."""


class BranchLostError(NehariFracError):
    """Descent left the two-root regime (coupling above the Psi threshold)."""


class ConfigError(NehariFracError):
    """User-facing configuration problem; maps to CLI exit code 2."""
