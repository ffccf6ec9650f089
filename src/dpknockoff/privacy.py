"""Output-perturbation privacy layer.

Two release mechanisms protect the knockoff statistics:

* the pair release perturbs the augmented Gram matrix (with a structured
  noise term built from one Laplace scalar and one symmetric Gaussian block)
  and the feature-response product;
* the estimate release perturbs the ridge/OLS coefficient vector directly.

Both are calibrated from data-dependent sensitivity bounds driven by three
scalars derived from the observed design: the row-influence ratio
eta^2 = B^2/(C_min^2 - B^2), a Gaussian-norm concentration constant zeta,
and the spectral spread gamma = 2*lambda_max(S') - lambda_min(S').  Because
the sensitivities depend on the observed data, the guarantee is local: the
noise is calibrated at the dataset at hand, not over all possible datasets.

:func:`calibrate` is the one place a sensitivity meets its (eps, delta)
knobs, and it refuses any non-finite sensitivity or scale.  Both releases
draw from its record and carry it as ``PrivateRelease.noise_scales``;
``dpknockoff calibrate`` prints from the same record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import ModelOracle, NormBounds
from .errors import BudgetInvalid, DeltaTooSmall, PrivacyPreconditionFailed
from .knockoffs import GramSpectrum, KnockoffSummary, closed_form_gram_eigenvalues
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
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (label,)
        )
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(label,))
    return np.random.default_rng(ss)


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
    """The sensitivity inputs plus zeta; eta^2, B/eta and gamma derive from them."""

    zeta: float
    bounds: NormBounds
    oracle: ModelOracle
    spectrum: GramSpectrum
    frobenius_sigma_raw: float

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


def delta2_floor(p: int) -> float:
    """Smallest admissible delta_2 for dimension p (exclusive bound)."""
    return 2.0 * math.exp(-p / 2.0)


def build_sensitivity_context(
    bounds: NormBounds,
    oracle: ModelOracle,
    spectrum: GramSpectrum,
    raw_gram_frobenius: float,
    budget: PrivacyBudget,
) -> SensitivityContext:
    """Bind the calibration inputs for the observed design and evaluate zeta.

    zeta = 2*p*sigma^2 / (1 - sqrt((2/p) ln(2/delta_2))) bounds the norm of
    the Gaussian part of the released quantities except with probability
    delta_2, with p read from the spectrum.  eta^2 and gamma follow from
    ``bounds`` and ``spectrum`` (see :class:`SensitivityContext`).
    """
    p = spectrum.sigma_prime.shape[0]
    floor = delta2_floor(p)
    if budget.delta_2 <= floor:
        raise DeltaTooSmall(
            f"delta_2={budget.delta_2:g} must exceed 2*exp(-p/2)={floor:.3e} "
            "for the concentration constant to be finite"
        )
    denom = 1.0 - math.sqrt((2.0 / p) * math.log(2.0 / budget.delta_2))
    return SensitivityContext(
        zeta=2.0 * p * oracle.sigma2_bound / denom,
        bounds=bounds,
        oracle=oracle,
        spectrum=spectrum,
        frobenius_sigma_raw=float(raw_gram_frobenius),
    )


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
# Sensitivity formulas
# ---------------------------------------------------------------------------


def gram_sensitivities(ctx: SensitivityContext) -> tuple[float, float]:
    """Per-row sensitivities of the normalized Gram's smallest eigenvalue
    (l1, fed to Laplace noise) and of the Gram itself in Frobenius norm
    (l2, fed to Gaussian noise)::

        |lambda_min| change <= eta^2 * (1 + lambda_min(S'))
        Frobenius change    <= eta^2 * (sqrt(2) + ||S'||_F)
    """
    lam_sens = ctx.eta2 * (1.0 + ctx.spectrum.lambda_min)
    frob_sens = ctx.eta2 * (math.sqrt(2.0) + ctx.spectrum.frobenius_norm)
    return lam_sens, frob_sens


def pair_crossprod_sensitivity(ctx: SensitivityContext) -> float:
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
    eta = math.sqrt(ctx.eta2)
    b = ctx.bounds.row_bound_B
    c = ctx.bounds.col_min_C
    lam_min = ctx.spectrum.lambda_min
    lam_max = ctx.spectrum.lambda_max

    noise_part = math.sqrt(ctx.zeta) * (
        2.0 * math.sqrt(ctx.gamma) + eta * math.sqrt(3.0 + 2.0 * lam_max + lam_min)
    )
    signal_part = ctx.oracle.beta_norm_bound * (
        math.sqrt(2.0) * (eta / b - 1.0 / c) * ctx.frobenius_sigma_raw
        + 2.0 * eta * b
        + (c - ctx.b_over_eta) * lam_min
        + ctx.eta2 * (lam_min + 1.0) * math.sqrt(c * c + b * b)
    )
    return noise_part + signal_part


def estimate_sensitivity(ctx: SensitivityContext, ridge_omega2: float = 0.0) -> float:
    """l2 sensitivity of the ridge/OLS coefficient vector on the augmented design::

        2*sqrt(zeta) / sqrt((1 - eta^2)*lambda_min - eta^2)
      + (C_min - B/eta) * ||beta||

    with lambda_min the smallest normalized-Gram eigenvalue plus any ridge
    term (adding omega^2 * I to the augmented Gram shifts its spectrum up by
    exactly omega^2).  Requires (1 - eta^2)*lambda_min > eta^2; otherwise the
    denominator is not positive and no finite calibration exists.
    """
    if ridge_omega2 < 0:
        raise ValueError("ridge_omega2 must be nonnegative")
    lam_eff = ctx.spectrum.lambda_min + ridge_omega2
    denom_sq = (1.0 - ctx.eta2) * lam_eff - ctx.eta2
    if denom_sq <= 0.0:
        raise PrivacyPreconditionFailed(
            f"estimate release needs (1 - eta^2)*lambda_min > eta^2; got "
            f"eta^2={ctx.eta2:.6g}, effective lambda_min={lam_eff:.6g}. "
            "Ridge stabilization (a positive ridge_omega2) raises the effective "
            "eigenvalue when eta^2 < 1; with eta^2 >= 1 the norm bounds are too loose."
        )
    return (
        2.0 * math.sqrt(ctx.zeta) / math.sqrt(denom_sq)
        + (ctx.bounds.col_min_C - ctx.b_over_eta) * ctx.oracle.beta_norm_bound
    )


# ---------------------------------------------------------------------------
# Calibration and releases
# ---------------------------------------------------------------------------


def gram_noise_scales(ctx: SensitivityContext, budget: PrivacyBudget):
    """(theta_1 Laplace scale, kappa_1^2 Gaussian variance) of the Gram noise.

    theta_1 is calibrated from the lambda_min sensitivity at eps_1 and
    kappa_1^2 from the Frobenius sensitivity at (eps_2, delta); each is None
    while its budget knobs are unset.
    """
    lam_sens, frob_sens = gram_sensitivities(ctx)
    theta1_scale = None if budget.eps_1 is None else laplace_scale(lam_sens, budget.eps_1)
    kappa1_sq = None
    if budget.eps_2 is not None and budget.delta is not None:
        kappa1_sq = gaussian_scale(frob_sens, budget.eps_2, budget.delta)
    return theta1_scale, kappa1_sq


def calibrate(
    ctx: SensitivityContext, budget: PrivacyBudget, method: str, ridge_omega2: float = 0.0
) -> dict:
    """Noise-scale record of a method ``"1"`` (pair) or ``"2"`` (estimate) release.

    Every scale pairs one sensitivity with its budget knobs: for the pair
    release theta_1 and kappa_1^2 from :func:`gram_noise_scales` and kappa_2^2
    from :func:`pair_crossprod_sensitivity` at (eps, delta_1); for the
    estimate release kappa^2 from :func:`estimate_sensitivity` at
    (eps, delta_1).  The record ends with the release's total cost.  A
    non-finite entry, such as the inf scale of an overflowing ||beta|| bound,
    raises :class:`PrivacyPreconditionFailed` naming its key.
    """
    totals = budget.totals(method)  # raises unless the method's knobs are set
    if method == "1":
        lam_sens, frob_sens = gram_sensitivities(ctx)
        theta1_scale, kappa1_sq = gram_noise_scales(ctx, budget)
        cross_sens = pair_crossprod_sensitivity(ctx)
        scales = {
            "theta1_scale": theta1_scale,
            "kappa1_sq": kappa1_sq,
            "kappa2_sq": gaussian_scale(cross_sens, budget.eps, budget.delta_1),
            "lambda_min_sensitivity": lam_sens,
            "gram_frobenius_sensitivity": frob_sens,
            "crossprod_sensitivity": cross_sens,
        }
    else:
        sens = estimate_sensitivity(ctx, ridge_omega2)
        scales = {
            "kappa_sq": gaussian_scale(sens, budget.eps, budget.delta_1),
            "estimate_sensitivity": sens,
            "ridge_omega2": ridge_omega2,
        }
    scales["eps_total"], scales["delta_total"] = totals
    for key, value in scales.items():
        if not math.isfinite(value):
            raise PrivacyPreconditionFailed(
                f"calibration gives {key}={value}; the norm bounds are too loose "
                "for finite noise"
            )
    return scales


def assemble_gram_noise(theta_1: float, theta_2: np.ndarray) -> np.ndarray:
    """E = theta_1 * [[0, I], [I, 0]] + [[1, 1], [1, 1]] (x) theta_2.

    theta_1 sits on the two off-diagonal identity blocks and the symmetric
    zero-diagonal block theta_2 is tiled into all four blocks; that layout
    matches which Gram entries a single row change can move, and it is
    invariant in distribution under any original/knockoff column swap.
    """
    p = theta_2.shape[0]
    e = np.tile(theta_2, (2, 2))
    idx = np.arange(p)
    e[idx, idx + p] += theta_1
    e[idx + p, idx] += theta_1
    return e


@dataclass(frozen=True)
class PrivateRelease:
    """A released private quantity plus its noise-scale record.

    A pair release populates the noisy Gram matrix and noisy
    feature-response product, an estimate release the noisy coefficient
    vector.  ``noise_scales`` is the record :func:`calibrate` returns.
    """

    noise_scales: dict
    gram_noisy: np.ndarray | None = None
    crossprod_noisy: np.ndarray | None = None
    estimate_noisy: np.ndarray | None = None

    def total_privacy(self) -> tuple[float, float]:
        return self.noise_scales["eps_total"], self.noise_scales["delta_total"]


def release_pair(
    ks: KnockoffSummary,
    ctx: SensitivityContext,
    budget: PrivacyBudget,
    seed=None,
) -> PrivateRelease:
    """Release a perturbed (augmented Gram, feature-response product) pair.

    Both are read from ``ks``.  The Gram perturbation is
    theta_1 ~ Laplace(theta1_scale) on the off-diagonal identity blocks plus
    a symmetric Gaussian block with upper-triangle variance kappa_1^2; the
    product perturbation is i.i.d. Gaussian with variance kappa_2^2.  The
    scales come from :func:`calibrate`.  Any statistic computed from the
    released pair costs (eps + eps_1 + eps_2, delta + delta_1 + delta_2) in
    total.  The release adds exactly the noise it draws.
    """
    scales = calibrate(ctx, budget, "1")
    theta_1 = float(
        sample_laplace_vector(1, scales["theta1_scale"], _substream(seed, _LABEL_THETA1))[0]
    )
    theta_2 = sample_symmetric_offdiag_gaussian(
        ks.p, scales["kappa1_sq"], _substream(seed, _LABEL_THETA2)
    )
    e_vec = sample_gaussian_vector(2 * ks.p, scales["kappa2_sq"], _substream(seed, _LABEL_VECTOR))
    return PrivateRelease(
        gram_noisy=ks.gram_g + assemble_gram_noise(theta_1, theta_2),
        crossprod_noisy=ks.crossprod + e_vec,
        noise_scales=scales,
    )


def release_estimate(
    ks: KnockoffSummary,
    ctx: SensitivityContext,
    budget: PrivacyBudget,
    ridge_omega2: float = 0.0,
    seed=None,
) -> PrivateRelease:
    """Release a perturbed ridge/OLS coefficient vector on the augmented design.

    The vector is :func:`~dpknockoff.selection.estimate_coefficients` of
    G + omega^2 I and [X' Xt]^T y, both read from ``ks``; the sensitivity is
    calibrated for exactly that vector.  It adds i.i.d. Gaussian noise with
    variance kappa^2 from :func:`calibrate`; delta_2 is consumed by the
    concentration event inside the sensitivity bound, for a total cost of
    (eps, delta_1 + delta_2).
    """
    scales = calibrate(ctx, budget, "2", ridge_omega2)
    estimate = estimate_coefficients(ks.gram_g, ks.crossprod, ridge_omega2=ridge_omega2)
    e_vec = sample_gaussian_vector(2 * ks.p, scales["kappa_sq"], _substream(seed, _LABEL_VECTOR))
    return PrivateRelease(noise_scales=scales, estimate_noisy=estimate + e_vec)
