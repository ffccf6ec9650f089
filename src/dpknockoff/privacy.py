"""Output-perturbation privacy layer.

Two release mechanisms protect the knockoff statistics:

* the pair release perturbs the augmented Gram matrix (with a structured
  noise term built from one Laplace scalar and one symmetric Gaussian block,
  in G's own block layout, :func:`~dpknockoff.knockoffs.paired_blocks`)
  and the feature-response product;
* the estimate release perturbs the ridge/OLS coefficient vector directly.

Both are calibrated from data-dependent sensitivity bounds driven by three
scalars derived from the observed design: the row-influence ratio
eta^2 = B^2/(C_min^2 - B^2), a Gaussian-norm concentration constant zeta,
and the spectral spread gamma = 2*lambda_max(S') - lambda_min(S').  Because
the sensitivities depend on the observed data, the guarantee is local: the
noise is calibrated at the dataset at hand, not over all possible datasets.

:class:`SensitivityContext` is the one calibration record: each
sensitivity formula and noise scale is one of its cached properties,
evaluated once, and a non-finite one is refused; ``dpknockoff calibrate``
prints its fields.  A release holds only its noisy quantities and their
public (eps, delta) cost, never a scale or sensitivity of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import ModelOracle, NormBounds
from .errors import BudgetInvalid, DeltaTooSmall, PrivacyPreconditionFailed
from .knockoffs import GramSpectrum, KnockoffSummary, closed_form_gram_eigenvalues, paired_blocks
from .selection import estimate_coefficients

# Multiplicative bump applied to Gaussian variances so the strict calibration
# inequality holds rather than equality.
STRICTNESS_BUMP = 1e-9

# Fixed labels for the independent noise substreams of a release, so adding
# draws to one component never perturbs another.
_LABEL_THETA1 = 0
_LABEL_THETA2 = 1
_LABEL_VECTOR = 2


def _substream(seed, label: int) -> np.random.Generator:
    """Independent generator derived from ``seed`` by a fixed integer label."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.default_rng(
        np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, label))
    )


# ---------------------------------------------------------------------------
# Budgets and calibration scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyBudget:
    """The (epsilon, delta) knobs of the two mechanisms.

    The estimate release consumes (eps, delta_1, delta_2): eps and delta_1
    calibrate the Gaussian noise on the coefficient vector, delta_2 is spent
    on the norm-concentration event inside the sensitivity bound.

    The pair release additionally uses eps_1 (Laplace noise on the repeated
    off-diagonal scalar), eps_2 and delta (Gaussian noise on the symmetric
    Gram block).  Its total cost composes additively to
    (eps + eps_1 + eps_2, delta + delta_1 + delta_2).
    """

    eps: float
    delta_1: float
    delta_2: float
    eps_1: float | None = None
    eps_2: float | None = None
    delta: float | None = None

    def __post_init__(self):
        for name in ("eps", "delta_1", "delta_2"):
            if getattr(self, name) is None:
                raise BudgetInvalid(f"{name} is required for every release")
        if not 0.0 < self.eps < 1.0:
            raise BudgetInvalid(f"eps must lie in (0,1), got {self.eps}")
        for name in ("delta_1", "delta_2", "delta"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < 1.0:
                raise BudgetInvalid(f"{name} must lie in (0,1), got {v}")
        for name in ("eps_1", "eps_2"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                need = "finite" if v > 0.0 else "strictly positive"
                raise BudgetInvalid(f"{name} must be {need}, got {v}")
        if self.eps_2 is not None and self.eps_2 >= 1.0:  # the Gaussian mechanism's domain
            raise BudgetInvalid(f"eps_2 must lie in (0,1), got {self.eps_2}")

    def totals(self, method: str) -> tuple[float, float]:
        """Composed (eps, delta) cost of a method ``"1"`` (pair) or ``"2"`` (estimate) release."""
        if method == "2":
            return (self.eps, self.delta_1 + self.delta_2)
        if method != "1":
            raise ValueError(f"unknown release method {method!r}; expected '1' or '2'")
        missing = [n for n in ("eps_1", "eps_2", "delta") if getattr(self, n) is None]
        if missing:
            raise BudgetInvalid(
                f"pair release needs eps, eps_1, eps_2, delta, delta_1, delta_2; "
                f"missing {', '.join(missing)}"
            )
        return (self.eps + self.eps_1 + self.eps_2, self.delta + self.delta_1 + self.delta_2)


@dataclass(frozen=True)
class SensitivityContext:
    """The calibration record: the sensitivity inputs, budget and ridge term omega^2.

    zeta, eta^2, gamma, the four sensitivities and their noise scales are
    properties derived from these fields, each sensitivity and scale
    evaluated at most once, when first read.  Of all these facts only the
    release method and its (eps, delta) totals are public.
    """

    bounds: NormBounds
    oracle: ModelOracle
    spectrum: GramSpectrum
    frobenius_sigma_raw: float
    budget: PrivacyBudget
    ridge_omega2: float = 0.0

    @cached_property
    def zeta(self) -> float:
        """2*p*sigma^2 / (1 - sqrt((2/p) ln(2/delta_2))), which bounds the norm of the
        Gaussian part of the released quantities except with probability delta_2.
        """
        p = self.spectrum.sigma_prime.shape[0]
        delta_2 = self.budget.delta_2
        floor = delta2_floor(p)
        if delta_2 <= floor:
            raise DeltaTooSmall(
                f"delta_2={delta_2:g} must exceed 2*exp(-p/2)={floor:.3e} "
                "for the concentration constant to be finite"
            )
        denom = 1.0 - math.sqrt((2.0 / p) * math.log(2.0 / delta_2))
        return 2.0 * p * self.oracle.sigma2_bound / denom

    @property
    def eta2(self) -> float:
        """Row-influence ratio B^2/(C_min^2 - B^2)."""
        b, c = self.bounds.row_bound_B, self.bounds.col_min_C
        return b * b / (c * c - b * b)

    @property
    def b_over_eta(self) -> float:
        """sqrt(C_min^2 - B^2), which equals B/eta."""
        b, c = self.bounds.row_bound_B, self.bounds.col_min_C
        return math.sqrt(c * c - b * b)

    @property
    def gamma(self) -> float:
        """lambda_max of the augmented Gram, 2*lambda_max(S') - lambda_min(S')."""
        return closed_form_gram_eigenvalues(self.spectrum)[0]

    @cached_property
    def lambda_min_sensitivity(self) -> float:
        """Per-row l1 sensitivity of lambda_min(S'), eta^2 * (1 + lambda_min(S'))."""
        return self.eta2 * (1.0 + self.spectrum.lambda_min)

    @cached_property
    def gram_frobenius_sensitivity(self) -> float:
        """Per-row l2 sensitivity of S' in Frobenius norm, eta^2 * (sqrt(2) + ||S'||_F)."""
        return self.eta2 * (math.sqrt(2.0) + self.spectrum.frobenius_norm)

    @cached_property
    def crossprod_sensitivity(self) -> float:
        """l2 sensitivity of the feature-response product [X' Xt]^T y.

        Termwise:

            sqrt(zeta) * (2*sqrt(gamma) + eta*sqrt(3 + 2*lambda_max + lambda_min))
          + ||beta|| * ( sqrt(2)*(eta/B - 1/C_min)*||X^T X||_F
                       + 2*eta*B
                       + (C_min - B/eta)*lambda_min
                       + eta^2*(lambda_min + 1)*sqrt(C_min^2 + B^2) )

        The first block covers the Gaussian part of the response via the
        concentration constant zeta; the second covers the signal part through
        the supplied bound on ||beta||.
        """
        eta = math.sqrt(self.eta2)
        b = self.bounds.row_bound_B
        c = self.bounds.col_min_C
        lam_min = self.spectrum.lambda_min
        lam_max = self.spectrum.lambda_max
        noise_part = math.sqrt(self.zeta) * (
            2.0 * math.sqrt(self.gamma) + eta * math.sqrt(3.0 + 2.0 * lam_max + lam_min)
        )
        signal_part = self.oracle.beta_norm_bound * (
            math.sqrt(2.0) * (eta / b - 1.0 / c) * self.frobenius_sigma_raw
            + 2.0 * eta * b
            + (c - self.b_over_eta) * lam_min
            + self.eta2 * (lam_min + 1.0) * math.sqrt(c * c + b * b)
        )
        return noise_part + signal_part

    @cached_property
    def estimate_sensitivity(self) -> float:
        """l2 sensitivity of the ridge/OLS coefficient vector on the augmented design::

            2*sqrt(zeta) / sqrt((1 - eta^2)*lambda_min - eta^2)
          + (C_min - B/eta) * ||beta||

        with lambda_min the smallest normalized-Gram eigenvalue plus the ridge term
        omega^2 (adding omega^2 * I to the augmented Gram shifts its spectrum up by
        exactly omega^2).  Requires (1 - eta^2)*lambda_min > eta^2; otherwise the
        denominator is not positive and no finite calibration exists.
        """
        if not 0.0 <= self.ridge_omega2 < math.inf:  # also refuses nan
            need = "nonnegative" if self.ridge_omega2 < 0 else "finite"
            raise ValueError(f"ridge_omega2 must be {need}")
        lam_eff = self.spectrum.lambda_min + self.ridge_omega2
        denom_sq = (1.0 - self.eta2) * lam_eff - self.eta2
        if denom_sq <= 0.0:
            raise PrivacyPreconditionFailed(
                "estimate release needs (1 - eta^2)*lambda_min > eta^2, with lambda_min "
                "the effective eigenvalue. Ridge stabilization (a positive ridge_omega2) "
                "raises it when eta^2 < 1; with eta^2 >= 1 the norm bounds are too loose."
            )
        return (
            2.0 * math.sqrt(self.zeta) / math.sqrt(denom_sq)
            + (self.bounds.col_min_C - self.b_over_eta) * self.oracle.beta_norm_bound
        )

    @cached_property
    def theta1_scale(self) -> float | None:
        """Laplace scale of the lambda_min sensitivity at eps_1; None without eps_1."""
        eps_1 = self.budget.eps_1
        return None if eps_1 is None else laplace_scale(self.lambda_min_sensitivity, eps_1)

    @cached_property
    def kappa1_sq(self) -> float | None:
        """Gaussian variance of the Frobenius sensitivity at (eps_2, delta); None without both."""
        b = self.budget
        if b.eps_2 is None or b.delta is None:
            return None
        return gaussian_scale(self.gram_frobenius_sensitivity, b.eps_2, b.delta)

    @cached_property
    def kappa2_sq(self) -> float:
        """Gaussian variance of the cross-product sensitivity at (eps, delta_1)."""
        return gaussian_scale(self.crossprod_sensitivity, self.budget.eps, self.budget.delta_1)

    @cached_property
    def kappa_sq(self) -> float:
        """Gaussian variance of the estimate sensitivity at (eps, delta_1)."""
        return gaussian_scale(self.estimate_sensitivity, self.budget.eps, self.budget.delta_1)

    def noise_scales(self, method: str) -> dict:
        """A method ``"1"`` (pair) or ``"2"`` (estimate) release's noise scales, the
        sensitivities behind them and its total cost.  Unset knobs raise
        :class:`BudgetInvalid`; a non-finite entry, such as the inf scale of an
        overflowing ||beta|| bound, raises :class:`PrivacyPreconditionFailed`.
        """
        totals = self.budget.totals(method)
        if method == "1":
            keys = ("theta1_scale", "kappa1_sq", "kappa2_sq", "lambda_min_sensitivity",
                    "gram_frobenius_sensitivity", "crossprod_sensitivity")
        else:
            keys = ("kappa_sq", "estimate_sensitivity", "ridge_omega2")
        scales = {key: getattr(self, key) for key in keys}
        scales["eps_total"], scales["delta_total"] = totals
        for key, value in scales.items():
            if not math.isfinite(value):
                raise PrivacyPreconditionFailed(
                    f"calibration gives {key}={value}; the norm bounds are too loose "
                    "for finite noise"
                )
        return scales


def delta2_floor(p: int) -> float:
    """Smallest admissible delta_2 for dimension p (exclusive bound)."""
    return 2.0 * math.exp(-p / 2.0)


def build_sensitivity_context(
    bounds: NormBounds,
    oracle: ModelOracle,
    spectrum: GramSpectrum,
    raw_gram_frobenius: float,
    budget: PrivacyBudget,
    ridge_omega2: float = 0.0,
) -> SensitivityContext:
    """The calibration record of the observed design; a delta_2 at or below
    :func:`delta2_floor` raises :class:`DeltaTooSmall` here, before any release.
    """
    ctx = SensitivityContext(
        bounds, oracle, spectrum, float(raw_gram_frobenius), budget, ridge_omega2
    )
    ctx.zeta  # raises DeltaTooSmall now, before any release
    return ctx


# ---------------------------------------------------------------------------
# Mechanism calibration and samplers
# ---------------------------------------------------------------------------


def gaussian_scale(sensitivity_l2: float, eps: float, delta: float) -> float:
    """Gaussian-mechanism variance for an l2 sensitivity.

    Returns 2*ln(1.25/delta)*(sensitivity/eps)^2, bumped by a relative 1e-9
    so the strict calibration inequality is satisfied; inf where that
    overflows.
    """
    if not 0.0 < eps < 1.0:
        raise BudgetInvalid(f"Gaussian mechanism needs eps in (0,1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise BudgetInvalid(f"Gaussian mechanism needs delta in (0,1), got {delta}")
    if sensitivity_l2 < 0:
        raise ValueError("sensitivity must be nonnegative")
    try:
        base = 2.0 * math.log(1.25 / delta) * (sensitivity_l2 / eps) ** 2
    except OverflowError:  # float ** raises where a product would give inf
        return math.inf
    return base * (1.0 + STRICTNESS_BUMP)


def laplace_scale(sensitivity_l1: float, eps: float) -> float:
    """Laplace-mechanism scale parameter sensitivity/eps."""
    if eps <= 0.0:
        raise BudgetInvalid(f"Laplace mechanism needs eps > 0, got {eps}")
    if sensitivity_l1 < 0:
        raise ValueError("sensitivity must be nonnegative")
    return sensitivity_l1 / eps


def sample_gaussian_vector(dim: int, variance: float, seed=None) -> np.ndarray:
    """i.i.d. N(0, variance) vector; zero variance gives an exact zero vector."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0.0:
        return np.zeros(dim)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(variance), size=dim)


def sample_laplace_vector(dim: int, scale: float, seed=None) -> np.ndarray:
    """i.i.d. Laplace(scale) vector; zero scale gives an exact zero vector."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return np.zeros(dim)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.laplace(0.0, scale, size=dim)


def sample_symmetric_offdiag_gaussian(p: int, variance: float, rng) -> np.ndarray:
    """Symmetric p x p matrix, zero diagonal, upper triangle i.i.d. N(0, variance)."""
    t = np.zeros((p, p))
    iu = np.triu_indices(p, k=1)
    t[iu] = sample_gaussian_vector(len(iu[0]), variance, rng)
    return t + t.T


# ---------------------------------------------------------------------------
# Releases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivateRelease:
    """A released private quantity and its composed (eps, delta) cost.

    A pair release populates the noisy Gram matrix and noisy
    feature-response product, an estimate release the noisy coefficient
    vector.  ``total_privacy`` is the budget's ``totals`` of the release's
    method; the noise scales stay on the calibration record.
    """

    total_privacy: tuple[float, float]
    gram_noisy: np.ndarray | None = None
    crossprod_noisy: np.ndarray | None = None
    estimate_noisy: np.ndarray | None = None


def release_pair(
    ks: KnockoffSummary,
    ctx: SensitivityContext,
    seed=None,
) -> PrivateRelease:
    """Release a perturbed (augmented Gram, feature-response product) pair.

    Both are read from ``ks``.  The Gram perturbation is
    theta_1 ~ Laplace(theta1_scale) on the off-diagonal identity blocks plus
    a symmetric Gaussian block with upper-triangle variance kappa_1^2; the
    product perturbation is i.i.d. Gaussian with variance kappa_2^2.  The
    scales come from ``ctx.noise_scales("1")``.  Any statistic computed from the
    released pair costs (eps + eps_1 + eps_2, delta + delta_1 + delta_2) in
    total.  The release adds exactly the noise it draws.
    """
    scales = ctx.noise_scales("1")
    theta_1 = float(
        sample_laplace_vector(1, scales["theta1_scale"], _substream(seed, _LABEL_THETA1))[0]
    )
    theta_2 = sample_symmetric_offdiag_gaussian(
        ks.p, scales["kappa1_sq"], _substream(seed, _LABEL_THETA2)
    )
    e_vec = sample_gaussian_vector(2 * ks.p, scales["kappa2_sq"], _substream(seed, _LABEL_VECTOR))
    return PrivateRelease(
        gram_noisy=ks.gram_g + paired_blocks(theta_2, theta_1),
        crossprod_noisy=ks.crossprod + e_vec,
        total_privacy=ctx.budget.totals("1"),
    )


def release_estimate(
    ks: KnockoffSummary,
    ctx: SensitivityContext,
    seed=None,
) -> PrivateRelease:
    """Release a perturbed ridge/OLS coefficient vector on the augmented design.

    The vector is :func:`~dpknockoff.selection.estimate_coefficients` of
    G + omega^2 I and [X' Xt]^T y, both read from ``ks``, with omega^2 the
    record's ridge term; the sensitivity is calibrated for exactly that
    vector.  It adds i.i.d. Gaussian noise with variance kappa^2 from
    ``ctx.noise_scales("2")``; delta_2 is consumed by the
    concentration event inside the sensitivity bound, for a total cost of
    (eps, delta_1 + delta_2).
    """
    scales = ctx.noise_scales("2")
    estimate = estimate_coefficients(ks.gram_g, ks.crossprod, ridge_omega2=ctx.ridge_omega2)
    e_vec = sample_gaussian_vector(2 * ks.p, scales["kappa_sq"], _substream(seed, _LABEL_VECTOR))
    return PrivateRelease(total_privacy=ctx.budget.totals("2"), estimate_noisy=estimate + e_vec)
