"""Exception types shared across the toolkit."""


class CMVKitError(Exception):
    """Base class for all toolkit errors."""


class ModulusError(CMVKitError):
    """A Verblunsky coefficient left the open unit disk."""


class FrequencyRangeError(CMVKitError):
    """Sturmian frequency outside (0, 1)."""


class SupportError(CMVKitError):
    """Sequence support (one-sided vs two-sided) does not fit the operation."""


class SizeError(CMVKitError):
    """Invalid matrix/window size."""


class WindowError(CMVKitError):
    """Requested indices fall outside the usable window."""


class SingularError(CMVKitError):
    """A truncated linear system was numerically singular."""


class SpectralPointError(CMVKitError):
    """Spectral parameter outside the admissible domain (z = 0 or on the circle)."""


class DegenerateRhoError(CMVKitError):
    """A required rho(n) vanished numerically."""


class NormalizationError(CMVKitError):
    """Initial data violates the required normalization."""


class InsufficientDataError(CMVKitError):
    """Not enough samples for a fit."""


class DiskError(CMVKitError):
    """Evaluation point outside the open unit disk."""


class DepthError(CMVKitError):
    """Invalid truncation depth."""


class PoleError(CMVKitError):
    """Denominator of a fractional-linear map vanished."""


class HorizonError(CMVKitError):
    """Root search exceeded the computed solution horizon."""


class DegenerateError(CMVKitError):
    """Resolvent denominator too close to zero."""


class ConventionError(CMVKitError):
    """No sign/conjugation convention reproduces the oracle."""


class DomainError(CMVKitError):
    """Argument outside the mathematical domain of a formula."""


class UnconvergedWarning(RuntimeWarning):
    """An adaptive evaluation stopped at its depth limit before converging."""
