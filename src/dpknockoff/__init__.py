"""FDR-controlled variable selection with differentially private statistic release.

The package builds fixed-X knockoff copies of a design matrix, computes
knockoff statistics from (optionally privately released) regression
estimates, applies the data-dependent selection threshold, and ships a Monte
Carlo harness for FDR/power experiments.

This namespace holds the entry points and the error classes; every other
name is imported from its module (``dpknockoff.knockoffs``,
``dpknockoff.privacy``, ``dpknockoff.selection``, ...).
"""

from .design import Dataset, ModelOracle, load_dataset
from .errors import (
    BoundViolation,
    BudgetInvalid,
    ConfigInvalid,
    DPKnockoffError,
    DeltaTooSmall,
    DimensionMismatch,
    InvalidDesign,
    KnockoffInfeasible,
    MissingTruth,
    NonConvergence,
    ParseError,
    PreconditionViolated,
    PrivacyPreconditionFailed,
    SingularSystem,
    SweepAborted,
)
from .pipeline import FilterResult, run_knockoff_filter
from .privacy import PrivacyBudget
from .simulate import SimConfig, read_config, run_sweep, write_report

__version__ = "0.1.0"
