"""Knockoff statistics, the data-dependent threshold, and selection scoring.

A coefficient vector of length 2p on the augmented design [X' Xt] is turned
into p statistics W, one per original feature, by comparing each coefficient
against its knockoff counterpart.  Positive W favors the original column;
the sign pattern of null statistics is i.i.d. symmetric, which is what makes
the thresholding rule control the false discovery rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ModelOracle, NormalizedDesign
from .errors import MissingTruth, NonConvergence, PreconditionViolated, SingularSystem
from .knockoffs import AugmentedDesign, gram_spectrum
from .privacy import PrivateRelease

STATISTIC_KINDS = ("lcd", "csm")

LASSO_MAX_SWEEPS = 100_000
LASSO_TOL = 1e-8


@dataclass(frozen=True)
class EstimateSource:
    """How the length-2p coefficient vector is obtained.

    kind is one of:

    * ``"nonprivate_ols"``   -- solve (gram + ridge) b = crossprod
    * ``"nonprivate_lasso"`` -- l1-penalized Gram-form coordinate descent
    * ``"pair"``             -- same solvers applied to a released noisy pair
    * ``"estimate"``         -- released noisy coefficient vector used as-is

    A noisy Gram matrix can be indefinite; by default it is used as-is, so
    the statistics stay a pure function of the released pair.
    ``repair_indefinite`` clips its eigenvalues to a small positive floor
    first (off by default).
    """

    kind: str
    lam: float = 0.0
    ridge_omega2: float = 0.0
    release: PrivateRelease | None = None
    repair_indefinite: bool = False

    def __post_init__(self):
        if self.kind not in ("nonprivate_ols", "nonprivate_lasso", "pair", "estimate"):
            raise ValueError(f"unknown estimate source kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("lasso penalty must be nonnegative")
        if self.ridge_omega2 < 0:
            raise ValueError("ridge term must be nonnegative")
        if self.kind in ("pair", "estimate"):
            if self.release is None or self.release.kind != self.kind:
                raise ValueError(f"source kind {self.kind!r} needs a matching release")


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


@dataclass(frozen=True)
class SwapSet:
    """A set of feature indices whose original/knockoff columns get exchanged."""

    indices: frozenset

    def __post_init__(self):
        idx = frozenset(int(j) for j in self.indices)
        if any(j < 0 for j in idx):
            raise ValueError("swap indices must be nonnegative")
        object.__setattr__(self, "indices", idx)


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _clip_eigenvalues(a: np.ndarray, rel_floor: float = 1e-8) -> np.ndarray:
    """Push eigenvalues below a small positive floor up to it."""
    evals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    floor = rel_floor * max(float(np.abs(evals).max()), 1.0)
    return (vecs * np.maximum(evals, floor)) @ vecs.T


def _lasso_gram_cd(gram, crossprod, lam, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS):
    """Minimize b^T A b - 2 c^T b + lam * ||b||_1 by cyclic coordinate descent.

    This is the Gram-form of the l1-penalized least-squares objective (equal
    up to the constant y^T y), so a released noisy pair can be plugged in
    directly.  Zero initialization, cyclic order; each coordinate update is
    the soft threshold of the partial residual at lam/2.  A noisy indefinite
    A makes the objective non-convex: updates may diverge, which surfaces as
    NonConvergence rather than being repaired.
    """
    a = np.asarray(gram, dtype=float)
    c = np.asarray(crossprod, dtype=float).ravel()
    m = c.shape[0]
    b = np.zeros(m)
    resid = c.copy()  # c - a @ b, maintained incrementally
    diag = np.diagonal(a).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
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
            if max_change <= tol:
                return b
    raise NonConvergence(
        f"coordinate descent did not reach tolerance {tol:g} within {max_sweeps} sweeps"
    )


def estimate_coefficients(gram, crossprod, source: EstimateSource, tol=LASSO_TOL) -> np.ndarray:
    """Produce the length-2p coefficient vector described by ``source``.

    For the solver-based kinds, ``gram`` and ``crossprod`` are the (possibly
    noisy) inputs; pass the released pair for kind ``"pair"``, or leave them
    ``None`` to pull the pair from the release.  Kind ``"estimate"`` ignores
    both and returns the released vector.
    """
    if source.kind == "estimate":
        return np.asarray(source.release.estimate_noisy, dtype=float)
    if source.kind == "pair" and gram is None and crossprod is None:
        gram = source.release.gram_noisy
        crossprod = source.release.crossprod_noisy
    gram = np.asarray(gram, dtype=float)
    crossprod = np.asarray(crossprod, dtype=float).ravel()
    if source.repair_indefinite:
        gram = _clip_eigenvalues(gram)

    use_lasso = source.kind == "nonprivate_lasso" or (source.kind == "pair" and source.lam > 0)
    if use_lasso:
        return _lasso_gram_cd(gram, crossprod, source.lam, tol=tol)
    a = gram
    if source.ridge_omega2 > 0:
        a = gram + source.ridge_omega2 * np.eye(gram.shape[0])
    try:
        return np.linalg.solve(a, crossprod)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("estimation system is numerically singular") from exc


def compute_statistics(estimate, kind: str = "lcd") -> StatisticVector:
    """Fold a length-2p estimate into p statistics.

    ``lcd`` is the coefficient-magnitude difference |b_i| - |b_{i+p}|;
    ``csm`` is the signed max sgn(|b_i| - |b_{i+p}|) * max(|b_i|, |b_{i+p}|),
    with sign 0 on exact ties so that ties contribute nothing.
    """
    if kind not in STATISTIC_KINDS:
        raise ValueError(f"unknown statistic kind {kind!r}; expected one of {STATISTIC_KINDS}")
    est = np.asarray(estimate, dtype=float).ravel()
    if est.shape[0] % 2 != 0:
        raise ValueError("estimate must have even length 2p")
    p = est.shape[0] // 2
    mag_orig = np.abs(est[:p])
    mag_knock = np.abs(est[p:])
    if kind == "lcd":
        w = mag_orig - mag_knock
    else:
        w = np.sign(mag_orig - mag_knock) * np.maximum(mag_orig, mag_knock)
    return StatisticVector(w=w, statistic_kind=kind, estimate=est)


def knockoff_threshold(w: StatisticVector, q: float) -> SelectionReport:
    """Data-dependent threshold T controlling the FDR at level q.

    Scans the nonzero magnitudes t of the statistics in increasing order and
    picks the smallest with (1 + #{W_j <= -t}) / max(#{W_j >= t}, 1) <= q;
    if no candidate qualifies T = +inf and nothing is selected.  The +1 in
    the numerator is what yields the finite-sample guarantee.  Both counts
    come from binary searches in the sorted statistics, so the scan costs
    O(p log p).
    """
    if not 0.0 < q < 1.0:
        raise PreconditionViolated(f"target FDR q must lie in (0,1), got {q}")
    wv = np.asarray(w.w, dtype=float)
    candidates = np.unique(np.abs(wv))
    candidates = candidates[candidates > 0.0]
    ordered = np.sort(wv[~np.isnan(wv)])  # NaN satisfies neither count
    n_neg = np.searchsorted(ordered, -candidates, side="right")
    n_pos = ordered.size - np.searchsorted(ordered, candidates, side="left")
    passing = np.flatnonzero((1 + n_neg) / np.maximum(n_pos, 1) <= q)
    threshold = float(candidates[passing[0]]) if passing.size else np.inf
    selected = frozenset(int(j) for j in np.flatnonzero(wv >= threshold))
    return SelectionReport(selected=selected, threshold_t=threshold, q=q, w=w)


def swap_columns_test(ad: AugmentedDesign, f: SwapSet) -> AugmentedDesign:
    """Exchange original and knockoff columns for every index in ``f``.

    Test-suite helper: running the pipeline on the swapped design must flip
    exactly the signs of the swapped statistics (with fixed noise), which is
    the antisymmetry hypothesis behind FDR control.  The augmented Gram and
    its spectrum are recomputed from the swapped matrices.
    """
    p = ad.p
    idx = sorted(f.indices)
    if idx and idx[-1] >= p:
        raise ValueError(f"swap index {idx[-1]} out of range for p={p}")
    x = ad.design.x_prime.copy()
    kn = ad.knockoff.copy()
    x[:, idx], kn[:, idx] = kn[:, idx].copy(), x[:, idx].copy()
    nd = NormalizedDesign(x_prime=x, normalizer_d=ad.design.normalizer_d, source=ad.design.source)
    spectrum = gram_spectrum(nd)
    xtk = x.T @ kn
    ktk = kn.T @ kn
    ktk = (ktk + ktk.T) / 2.0
    gram = np.block([[spectrum.sigma_prime, xtk], [xtk.T, ktk]])
    return AugmentedDesign(
        design=nd,
        knockoff=kn,
        s_value=ad.s_value,
        gram_g=gram,
        spectrum=spectrum,
    )


def evaluate_selection(report: SelectionReport, truth: ModelOracle) -> tuple[float, float]:
    """Score a selection against ground truth: (FDP, power).

    FDP is the fraction of selected indices that are nulls (0 when nothing is
    selected); power is the fraction of the true support recovered (0 when
    the support is empty).
    """
    if truth.true_support is None:
        raise MissingTruth("evaluation requires an oracle with a true support set")
    support = truth.true_support
    selected = report.selected
    n_sel = len(selected)
    false_hits = sum(1 for j in selected if j not in support)
    fdp = false_hits / max(n_sel, 1)
    k = len(support)
    power = (n_sel - false_hits) / k if k > 0 else 0.0
    return fdp, power
