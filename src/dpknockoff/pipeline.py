"""End-to-end orchestration: dataset -> knockoffs -> release -> selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Dataset, ModelOracle, compute_bounds
from .errors import BudgetInvalid, PreconditionViolated
from .knockoffs import gram_spectrum, knockoff_summary
from .privacy import (
    PrivacyBudget,
    PrivateRelease,
    build_sensitivity_context,
    release_estimate,
    release_pair,
)
from .selection import (
    SelectionReport,
    _check_penalties,
    _check_q,
    _check_stat,
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


def _check_arguments(method, q, stat, lam, ridge_omega2, budget, oracle, row_bound_override) -> str:
    """Refuse :func:`run_knockoff_filter`'s arguments before it reads the data,
    each with the message of the function that reads it; the method as a str.
    Method "none" ignores an oracle and a seed, which a sweep passes for every
    method, and refuses a budget or a row bound."""
    method = str(method)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_q(q)
    _check_stat(stat)
    if method == "2" and lam != 0.0:
        raise PreconditionViolated(
            "method 2 releases the ridge/OLS estimate; a lasso penalty does not apply"
        )
    if method != "none" and (budget is None or oracle is None):
        raise BudgetInvalid("private methods need a privacy budget and a model oracle")
    for name, value in (("budget", budget), ("row_bound_override", row_bound_override)):
        if method == "none" and value is not None:
            raise PreconditionViolated(f"{name} is ignored under method none; "
                                       "choose method 1 or 2 for a private run")
    _check_penalties(lam, ridge_omega2)
    return method


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
    method = _check_arguments(
        method, q, stat, lam, ridge_omega2, budget, oracle, row_bound_override)
    spectrum = gram_spectrum(dataset)
    ks = knockoff_summary(dataset, spectrum)  # KnockoffInfeasible before any BoundViolation
    ctx = None if method == "none" else _calibration(
        dataset, spectrum, oracle, budget, ridge_omega2, row_bound_override)
    return _select(ks, ctx, method, q, stat, lam, ridge_omega2, seed)


def _calibration(dataset, spectrum, oracle, budget, ridge_omega2=0.0, row_bound_override=None):
    """The one calibration of a dataset at a budget (by default no ridge term, B observed)."""
    return build_sensitivity_context(compute_bounds(dataset, row_bound_override), oracle,
                                     spectrum, _gram_frobenius(dataset), budget, ridge_omega2)


def _gram_frobenius(dataset) -> float:
    return float(np.linalg.norm(dataset.gram, "fro"))  # ||X^T X||_F, which needs no bounds


def _select(ks, ctx, method, q, stat, lam, ridge_omega2, seed) -> FilterResult:
    """One release of ``ks`` at ``ctx`` (None under "none"): its estimate, W and threshold."""
    release = None
    if method == "none":
        estimate = estimate_coefficients(ks.gram_g, ks.crossprod, lam, ridge_omega2)
    elif method == "1":
        release = release_pair(ks, ctx, seed=seed)
        estimate = estimate_coefficients(
            release.gram_noisy, release.crossprod_noisy, lam, ridge_omega2)
    else:
        release = release_estimate(ks, ctx, seed=seed)
        estimate = release.estimate_noisy
    report = knockoff_threshold(compute_statistics(estimate, stat), q)
    return FilterResult(report=report, release=release)
