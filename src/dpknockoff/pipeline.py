"""End-to-end orchestration: dataset -> knockoffs -> release -> selection."""

from __future__ import annotations

from dataclasses import dataclass

from .design import Dataset, ModelOracle, NormBounds, compute_bounds
from .errors import BudgetInvalid
from .knockoffs import (
    KnockoffSummary,
    choose_s,
    gram_spectrum,
    knockoff_summary,
    raw_gram_frobenius,
)
from .privacy import (
    PrivacyBudget,
    PrivateRelease,
    SensitivityContext,
    build_sensitivity_context,
    release_estimate,
    release_pair,
)
from .selection import (
    EstimateSource,
    SelectionReport,
    compute_statistics,
    estimate_coefficients,
    knockoff_threshold,
)

METHODS = ("none", "1", "2")


@dataclass(frozen=True)
class FilterResult:
    """Everything produced by one run of the filter."""

    report: SelectionReport
    augmented: KnockoffSummary
    release: PrivateRelease | None = None
    bounds: NormBounds | None = None
    context: SensitivityContext | None = None


def run_knockoff_filter(
    dataset: Dataset,
    *,
    q: float,
    stat: str = "lcd",
    method: str = "none",
    budget: PrivacyBudget | None = None,
    oracle: ModelOracle | None = None,
    lam: float = 0.0,
    ridge_omega2: float = 0.0,
    s_mode: str = "private_recommended",
    row_bound_override: float | None = None,
    seed=None,
    zero_noise: bool = False,
) -> FilterResult:
    """Run the full knockoff filter on one dataset.

    ``method`` selects the statistic-release path: ``"none"`` computes the
    statistics directly, ``"1"`` routes them through the noisy
    (Gram, feature-response) pair, ``"2"`` through the noisy coefficient
    vector.  Private methods need a ``budget`` and an ``oracle`` carrying the
    bounds on ||beta|| and sigma^2.
    """
    method = str(method)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    spectrum = gram_spectrum(dataset)
    s = choose_s(spectrum, s_mode)
    ks = knockoff_summary(dataset, s, spectrum)

    release = None
    bounds = None
    ctx = None
    if method == "none":
        kind = "nonprivate_lasso" if lam > 0 else "nonprivate_ols"
        source = EstimateSource(kind=kind, lam=lam, ridge_omega2=ridge_omega2)
        estimate = estimate_coefficients(ks.gram_g, ks.crossprod, source)
    else:
        if budget is None or oracle is None:
            raise BudgetInvalid("private methods need a privacy budget and a model oracle")
        bounds = compute_bounds(dataset, row_bound_override)
        ctx = build_sensitivity_context(
            bounds, oracle, spectrum, raw_gram_frobenius(dataset), budget, dataset.p
        )
        if method == "1":
            release = release_pair(ks, ctx, budget, seed=seed, zero_noise=zero_noise)
            source = EstimateSource(kind="pair", lam=lam, ridge_omega2=ridge_omega2, release=release)
            estimate = estimate_coefficients(
                release.gram_noisy, release.crossprod_noisy, source
            )
        else:
            release = release_estimate(
                ks, ctx, budget, ridge_omega2=ridge_omega2, seed=seed, zero_noise=zero_noise
            )
            source = EstimateSource(kind="estimate", release=release)
            estimate = estimate_coefficients(None, None, source)

    w = compute_statistics(estimate, stat)
    report = knockoff_threshold(w, q)
    return FilterResult(report=report, augmented=ks, release=release, bounds=bounds, context=ctx)
