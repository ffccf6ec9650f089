"""FDR-controlled variable selection with differentially private statistic release.

The package builds fixed-X knockoff copies of a design matrix, computes
knockoff statistics from (optionally privately released) regression
estimates, applies the data-dependent selection threshold, and ships a Monte
Carlo harness for FDR/power experiments.
"""

from .design import (
    Dataset,
    ModelOracle,
    NormBounds,
    NormalizedDesign,
    compute_bounds,
    load_dataset,
    normalize_columns,
)
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
from .knockoffs import (
    AugmentedDesign,
    GramSpectrum,
    KnockoffSummary,
    build_knockoffs,
    choose_s,
    closed_form_gram_eigenvalues,
    complement_basis,
    gram_spectrum,
    knockoff_summary,
    raw_gram_frobenius,
)
from .pipeline import FilterResult, run_knockoff_filter
from .privacy import (
    PrivacyBudget,
    PrivateRelease,
    SensitivityContext,
    assemble_gram_noise,
    build_sensitivity_context,
    calibrate,
    delta2_floor,
    estimate_sensitivity,
    gaussian_scale,
    gram_noise_scales,
    gram_sensitivities,
    laplace_scale,
    pair_crossprod_sensitivity,
    release_estimate,
    release_pair,
    sample_gaussian_vector,
    sample_laplace_vector,
    sample_symmetric_offdiag_gaussian,
)
from .selection import (
    SelectionReport,
    StatisticVector,
    SwapSet,
    compute_statistics,
    estimate_coefficients,
    evaluate_selection,
    knockoff_threshold,
    swap_columns_test,
)
from .simulate import (
    SimConfig,
    SimRow,
    SimulationReport,
    budget_for,
    budget_totals,
    generate_trial,
    read_config,
    run_sweep,
    write_plot_data,
    write_report,
)

__version__ = "0.1.0"
