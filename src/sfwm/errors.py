"""Exception hierarchy.

Two branches matter to callers: :class:`UsageError` (bad inputs,
configuration, or misuse of an interface) and :class:`NumericsError`
(a computation that could not be completed).  The command-line front
end maps them to exit codes 2 and 3.
"""


class SfwmError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(SfwmError, ValueError):
    """Invalid argument, configuration, or call sequence."""


class NumericsError(SfwmError, RuntimeError):
    """A numerical procedure failed or refused to run."""


class GridTooNarrowError(NumericsError):
    """Spectral grid does not contain the amplitude; widen half_width."""


class AliasingError(NumericsError):
    """Spectral grid too coarse for the requested delay span."""


class ConvergenceError(NumericsError):
    """Iterative fit did not converge.  Carries the best iterate in ``best``."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InversionError(NumericsError):
    """Measured baseline cannot be produced by the model for any optical depth."""


class PeakShapeError(NumericsError):
    """Spectrum has no usable peak above its baseline."""


class DegenerateDataError(NumericsError):
    """Data carry no information for the requested fit (for example all zeros)."""
