"""Exception hierarchy shared by all polarlat modules, one class per failure
kind; README's "Command line" gives the exit code of each."""


class PolarlatError(Exception):
    """Base class for all package errors."""


class ConfigError(PolarlatError):
    """Invalid configuration file, key, or command-line input."""


class InputError(PolarlatError, ValueError):
    """Input data that describe no usable field, mode or disorder: a
    malformed sample array, incongruent grids, an unphysical dielectric map,
    a zero-norm mode or a bad disorder width or axis."""


class NumericalError(PolarlatError):
    """A numerical procedure failed (non-convergence, overflow, a budget, ...)."""


class DimensionBudgetError(NumericalError):
    """A requested basis or subspace exceeds the configured dimension budget."""


class MinimizationError(NumericalError):
    """Order-parameter search hit its expansion bound (runaway regime)."""


class LobeError(PolarlatError):
    """Chemical potential outside the requested Mott lobe, or lobe empty."""


class GridError(NumericalError):
    """One or more grid cells failed; carries the failing cell coordinates."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class FieldFormatError(PolarlatError):
    """Malformed field file; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ValidationFailure(PolarlatError):
    """The built-in oracle suite reported at least one failing check."""
