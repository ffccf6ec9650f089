"""Exception types shared across the package."""


class DPKnockoffError(Exception):
    """Base class for all package errors."""


class ParseError(DPKnockoffError):
    """A data file could not be parsed as numeric CSV."""


class DimensionMismatch(DPKnockoffError):
    """Design matrix and response vector disagree on sample count."""


class InvalidDesign(DPKnockoffError):
    """Design violates a structural requirement (n >= 2p, nonzero columns, finite entries)."""


class BoundViolation(DPKnockoffError):
    """Row/column norm bounds are inconsistent; the calibration needs B < C_min."""


class KnockoffInfeasible(DPKnockoffError):
    """Knockoff copy cannot be constructed (n < 2p or Cholesky breakdown)."""


class PreconditionViolated(DPKnockoffError):
    """An operation was called outside its documented precondition."""


class BudgetInvalid(DPKnockoffError):
    """Privacy budget parameters are missing or outside their admissible range."""


class DeltaTooSmall(DPKnockoffError):
    """delta_2 is at or below the 2*exp(-p/2) floor, so the concentration constant blows up."""


class PrivacyPreconditionFailed(DPKnockoffError):
    """The spectral condition required for a private release does not hold on this data."""


class SingularSystem(DPKnockoffError):
    """A linear system arising in estimation is numerically singular."""


class NonConvergence(DPKnockoffError):
    """Coordinate descent failed to converge within the iteration cap."""


class MissingTruth(DPKnockoffError):
    """Ground-truth support is required but absent from the model oracle."""


class ConfigInvalid(DPKnockoffError):
    """Simulation configuration fails validation."""


class SweepAborted(DPKnockoffError):
    """Too many trials at one sample size failed their privacy precondition."""
