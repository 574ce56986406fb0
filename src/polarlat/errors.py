"""Exception hierarchy shared by all polarlat modules."""


class PolarlatError(Exception):
    """Base class for all package errors."""


class ConfigError(PolarlatError):
    """Invalid configuration file, key, or command-line input."""


class InputError(PolarlatError, ValueError):
    """Input data that describe no usable field or mode: a malformed sample
    array, incongruent grids, an unphysical dielectric map or a zero-norm
    mode."""


class DimensionBudgetError(PolarlatError):
    """A requested basis or subspace exceeds the configured dimension budget."""


class EigensolverError(PolarlatError):
    """The dense/banded eigensolver failed to converge."""


class NumericalError(PolarlatError):
    """A numerical procedure failed (non-convergence, unbounded regime, ...)."""


class MinimizationError(NumericalError):
    """Order-parameter search hit its expansion bound (runaway regime)."""

    def __init__(self, message, psi_max=None):
        super().__init__(message)
        self.psi_max = psi_max


class LobeError(PolarlatError):
    """Chemical potential outside the requested Mott lobe, or lobe empty."""


class BracketingError(NumericalError):
    """Phase-boundary bisection could not bracket the transition."""


class GridError(NumericalError):
    """One or more grid cells failed; carries the failing cell coordinates."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class DisorderError(PolarlatError):
    """Invalid disorder specification or too few usable samples."""


class FieldFormatError(PolarlatError):
    """Malformed field file; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ValidationFailure(PolarlatError):
    """The built-in oracle suite reported at least one failing check."""
