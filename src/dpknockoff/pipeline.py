"""End-to-end orchestration: dataset -> knockoffs -> release -> selection."""

from __future__ import annotations

from dataclasses import dataclass

from .design import Dataset, ModelOracle, compute_bounds
from .errors import BudgetInvalid, PreconditionViolated
from .knockoffs import gram_spectrum, knockoff_summary, raw_gram_frobenius
from .privacy import (
    PrivacyBudget,
    PrivateRelease,
    build_sensitivity_context,
    release_estimate,
    release_pair,
)
from .selection import (
    SelectionReport,
    compute_statistics,
    estimate_coefficients,
    knockoff_threshold,
)

METHODS = ("none", "1", "2")

@dataclass(frozen=True)
class FilterResult:
    """One run's public record: the selection and, for a private method, its release."""

    report: SelectionReport
    release: PrivateRelease | None = None


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
    row_bound_override: float | None = None,
    seed=None,
) -> FilterResult:
    """Run the full knockoff filter on one dataset.

    ``method`` selects the statistic-release path: ``"none"`` computes the
    statistics directly, ``"1"`` routes them through the noisy
    (Gram, feature-response) pair, ``"2"`` through the noisy coefficient
    vector.  Private methods need a ``budget`` and an ``oracle`` carrying the
    bounds on ||beta|| and sigma^2.  ``lam > 0`` selects the lasso, which
    takes no ridge term and does not apply to method ``"2"``'s released
    ridge/OLS vector; asking for either raises :class:`PreconditionViolated`.
    """
    method = str(method)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "2" and lam != 0.0:
        raise PreconditionViolated(
            "method 2 releases the ridge/OLS estimate; a lasso penalty does not apply"
        )
    spectrum = gram_spectrum(dataset)
    ks = knockoff_summary(dataset, spectrum)

    release = None
    if method == "none":
        estimate = estimate_coefficients(ks.gram_g, ks.crossprod, lam, ridge_omega2)
    else:
        if budget is None or oracle is None:
            raise BudgetInvalid("private methods need a privacy budget and a model oracle")
        bounds = compute_bounds(dataset, row_bound_override)
        ctx = build_sensitivity_context(
            bounds, oracle, spectrum, raw_gram_frobenius(dataset), budget, ridge_omega2
        )
        if method == "1":
            release = release_pair(ks, ctx, seed=seed)
            estimate = estimate_coefficients(
                release.gram_noisy, release.crossprod_noisy, lam, ridge_omega2
            )
        else:
            release = release_estimate(ks, ctx, seed=seed)
            estimate = release.estimate_noisy

    w = compute_statistics(estimate, stat)
    report = knockoff_threshold(w, q)
    return FilterResult(report=report, release=release)

