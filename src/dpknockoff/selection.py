"""Knockoff statistics, the data-dependent threshold, and selection scoring.

A coefficient vector of length 2p on the augmented design [X' Xt] is turned
into p statistics W, one per original feature, by comparing each coefficient
against its knockoff counterpart.  Positive W favors the original column;
the sign pattern of null statistics is i.i.d. symmetric, which is what makes
the thresholding rule control the false discovery rate.

The coefficient vector comes from :func:`estimate_coefficients` (OLS, ridge
or the Gram-form lasso on a possibly noisy Gram and product) or, for the
estimate release, is the released vector itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ModelOracle
from .errors import MissingTruth, NonConvergence, PreconditionViolated, SingularSystem

STATISTIC_KINDS = ("lcd", "csm")

LASSO_MAX_SWEEPS = 100_000
LASSO_TOL = 1e-8


@dataclass(frozen=True)
class StatisticVector:
    """The p knockoff statistics plus the estimate they came from."""

    w: np.ndarray
    statistic_kind: str
    estimate: np.ndarray


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of thresholding one statistic vector at target level q."""

    selected: frozenset
    threshold_t: float
    q: float
    w: StatisticVector


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _lasso_gram_cd(a, c, lam):
    """Minimize b^T A b - 2 c^T b + lam * ||b||_1 by cyclic coordinate descent.

    This is the Gram-form of the l1-penalized least-squares objective (equal
    up to the constant y^T y), so a released noisy pair can be plugged in
    directly.  Zero initialization, cyclic order; each coordinate update is
    the soft threshold of the partial residual at lam/2.  A noisy indefinite
    A makes the objective non-convex: updates may diverge, which surfaces as
    NonConvergence rather than being repaired.  A sweep moving no coordinate
    more than LASSO_TOL stops it; LASSO_MAX_SWEEPS caps the sweeps (read per call).
    """
    m = c.shape[0]
    b = np.zeros(m)
    resid = c.copy()  # c - a @ b, maintained incrementally
    diag = np.diagonal(a).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(LASSO_MAX_SWEEPS):
            max_change = 0.0
            for j in range(m):
                old = b[j]
                rho = resid[j] + diag[j] * old
                new = _soft_threshold(rho, lam / 2.0) / diag[j] if diag[j] != 0.0 else np.inf
                step = new - old
                if step != 0.0:
                    b[j] = new
                    resid -= a[:, j] * step
                    max_change = max(max_change, abs(step))
            if not np.isfinite(max_change):
                raise NonConvergence("coordinate updates diverged; objective may be non-convex")
            if max_change <= LASSO_TOL:
                return b
    raise NonConvergence(f"coordinate descent did not reach tolerance {LASSO_TOL:g} "
                         f"within {LASSO_MAX_SWEEPS} sweeps")


def _check_penalties(lam: float, ridge_omega2: float) -> None:
    """:func:`estimate_coefficients`' refusals of its penalty and ridge term."""
    for name, value in (("lasso penalty", lam), ("ridge term", ridge_omega2)):
        if not 0.0 <= value < np.inf:  # also refuses nan
            raise ValueError(f"{name} must be {'nonnegative' if value < 0 else 'finite'}")
    if lam > 0 and ridge_omega2 > 0:
        raise PreconditionViolated(
            "the lasso path takes no ridge term; set either lam or ridge_omega2, not both"
        )


def estimate_coefficients(
    gram, crossprod, lam: float = 0.0, ridge_omega2: float = 0.0
) -> np.ndarray:
    """Length-2p coefficient vector from a (possibly noisy) Gram and product.

    With ``lam > 0`` this is the Gram-form lasso; otherwise it solves
    (gram + ridge_omega2 * I) b = crossprod.  The lasso has no ridge term,
    so asking for both raises :class:`PreconditionViolated`.  A noisy Gram
    is used as-is, indefinite or not, so the estimate stays a pure function
    of the released pair.
    """
    _check_penalties(lam, ridge_omega2)
    gram = np.asarray(gram, dtype=float)
    crossprod = np.asarray(crossprod, dtype=float).ravel()
    if lam > 0:
        return _lasso_gram_cd(gram, crossprod, lam)
    if ridge_omega2 > 0:
        gram = gram + ridge_omega2 * np.eye(gram.shape[0])
    try:
        return np.linalg.solve(gram, crossprod)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("estimation system is numerically singular") from exc


def _check_stat(kind: str) -> None:
    """:func:`compute_statistics`' refusal of its statistic kind."""
    if kind not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {kind!r}; expected one of {STATISTIC_KINDS}")


def compute_statistics(estimate, kind: str = "lcd") -> StatisticVector:
    """Fold a length-2p estimate into p statistics.

    ``lcd`` is the coefficient-magnitude difference |b_i| - |b_{i+p}|;
    ``csm`` is the signed max sgn(|b_i| - |b_{i+p}|) * max(|b_i|, |b_{i+p}|),
    with sign 0 on exact ties so that ties contribute nothing.  A non-finite
    estimate raises :class:`SingularSystem`: its statistics would fall
    through the threshold as an empty selection.
    """
    _check_stat(kind)
    est = np.asarray(estimate, dtype=float).ravel()
    if est.shape[0] % 2 != 0:
        raise ValueError("estimate must have even length 2p")
    if not np.all(np.isfinite(est)):
        bad = int(np.flatnonzero(~np.isfinite(est))[0])
        raise SingularSystem(
            f"estimate entry {bad} is {est[bad]}; the estimation system is numerically singular"
        )
    p = est.shape[0] // 2
    mag_orig = np.abs(est[:p])
    mag_knock = np.abs(est[p:])
    if kind == "lcd":
        w = mag_orig - mag_knock
    else:
        w = np.sign(mag_orig - mag_knock) * np.maximum(mag_orig, mag_knock)
    return StatisticVector(w=w, statistic_kind=kind, estimate=est)


def _check_q(q: float) -> None:
    """:func:`knockoff_threshold`'s refusal of its target FDR."""
    if not 0.0 < q < 1.0:
        raise PreconditionViolated(f"target FDR q must lie in (0,1), got {q}")


def knockoff_threshold(w: StatisticVector, q: float) -> SelectionReport:
    """Data-dependent threshold T controlling the FDR at level q.

    Scans the nonzero magnitudes t of the statistics in increasing order and
    picks the smallest with (1 + #{W_j <= -t}) / max(#{W_j >= t}, 1) <= q;
    if no candidate qualifies T = +inf and nothing is selected.  The +1 in
    the numerator is what yields the finite-sample guarantee.  Both counts
    come from binary searches in the sorted statistics, so the scan costs
    O(p log p).
    """
    _check_q(q)
    wv = np.asarray(w.w, dtype=float)
    candidates = np.sort(np.abs(wv))  # a repeated magnitude repeats its ratio
    candidates = candidates[candidates > 0.0]
    ordered = np.sort(wv[~np.isnan(wv)])  # NaN satisfies neither count
    n_neg = np.searchsorted(ordered, -candidates, side="right")
    n_pos = ordered.size - np.searchsorted(ordered, candidates, side="left")
    passing = np.flatnonzero((1 + n_neg) / np.maximum(n_pos, 1) <= q)
    threshold = float(candidates[passing[0]]) if passing.size else np.inf
    selected = frozenset(int(j) for j in np.flatnonzero(wv >= threshold))
    return SelectionReport(selected=selected, threshold_t=threshold, q=q, w=w)


def evaluate_selection(report: SelectionReport, truth: ModelOracle) -> tuple[float, float]:
    """Score a selection against ground truth: (FDP, power).

    FDP is the fraction of selected indices that are nulls (0 when nothing is
    selected); power is the fraction of the true support recovered (0 when
    the support is empty).
    """
    support = truth.true_support
    if support is None:
        raise MissingTruth("evaluation requires an oracle with a true support set")
    selected = report.selected
    n_sel = len(selected)
    false_hits = sum(1 for j in selected if j not in support)
    fdp = false_hits / max(n_sel, 1)
    k = len(support)
    power = (n_sel - false_hits) / k if k > 0 else 0.0
    return fdp, power
