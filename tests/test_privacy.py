import contextlib
import dataclasses
import functools
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from dpknockoff import (
    BoundViolation,
    BudgetInvalid,
    DPKnockoffError,
    Dataset,
    DeltaTooSmall,
    ModelOracle,
    PrivacyBudget,
    PrivacyPreconditionFailed,
    run_knockoff_filter,
)
from dpknockoff.design import NormBounds, compute_bounds
from dpknockoff import privacy
from dpknockoff.knockoffs import (
    GramSpectrum, gram_spectrum, knockoff_summary, paired_blocks, raw_gram_frobenius,
)
from dpknockoff.privacy import (
    STRICTNESS_BUMP,
    SensitivityContext,
    build_sensitivity_context,
    delta2_floor,
    gaussian_scale,
    laplace_scale,
    release_estimate,
    release_pair,
    sample_gaussian_vector,
    sample_laplace_vector,
    sample_symmetric_offdiag_gaussian,
)
from dpknockoff.selection import estimate_coefficients

# ---------------------------------------------------------------------------
# Independent termwise oracles.  These re-derive the sensitivity values step
# by step with scalar math only, deliberately not sharing code with the
# library implementation.
# ---------------------------------------------------------------------------


def oracle_zeta(p, sigma2, delta_2):
    inner = (2.0 / p) * math.log(2.0 / delta_2)
    return (2.0 * p * sigma2) / (1.0 - math.sqrt(inner))


def oracle_pair_sensitivity(B, C, lam_min, lam_max, frob_raw, beta_norm, sigma2, delta_2, p):
    eta_sq = B ** 2 / (C ** 2 - B ** 2)
    eta = math.sqrt(eta_sq)
    zeta = oracle_zeta(p, sigma2, delta_2)
    gamma = 2.0 * lam_max - lam_min
    term_noise = math.sqrt(zeta) * (
        2.0 * math.sqrt(gamma) + eta * (3.0 + 2.0 * lam_max + lam_min) ** 0.5
    )
    bracket = 0.0
    bracket += math.sqrt(2.0) * (eta / B - 1.0 / C) * frob_raw
    bracket += 2.0 * eta * B
    bracket += (C - B / eta) * lam_min
    bracket += eta_sq * (lam_min + 1.0) * math.sqrt(C ** 2 + B ** 2)
    return term_noise + beta_norm * bracket


def oracle_estimate_sensitivity(B, C, lam_min, beta_norm, sigma2, delta_2, p):
    eta_sq = B ** 2 / (C ** 2 - B ** 2)
    zeta = oracle_zeta(p, sigma2, delta_2)
    denom = (1.0 - eta_sq) * lam_min - eta_sq
    return 2.0 * math.sqrt(zeta) / math.sqrt(denom) + (C - B / math.sqrt(eta_sq)) * beta_norm


def _context_from_design(n, p, seed, beta_norm=1.0, sigma2=1.0, delta_2=0.05):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    ds = Dataset.from_arrays(x, np.zeros(n))
    spectrum = gram_spectrum(ds)
    bounds = compute_bounds(ds)
    oracle = ModelOracle(beta_norm_bound=beta_norm, sigma2_bound=sigma2)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=delta_2,
                           eps_1=0.1, eps_2=0.1, delta=0.05)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, raw_gram_frobenius(ds), budget)
    return ctx, bounds, spectrum


def _hand_context():
    """p=2 instance with Sigma'=I2, raw Sigma=4*I2, B=1, C=2, |beta|=1, sigma2=1."""
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9,
                           eps_1=0.05, eps_2=0.05, delta=0.1)
    return build_sensitivity_context(bounds, oracle, spectrum, 4.0 * math.sqrt(2.0), budget)


# ---------------------------------------------------------------------------
# Calibration scales and samplers
# ---------------------------------------------------------------------------


def test_gaussian_scale_closed_form():
    got = gaussian_scale(1.0, 0.5, 0.05)
    expected = 2.0 * math.log(1.25 / 0.05) * (1.0 / 0.5) ** 2 * (1.0 + STRICTNESS_BUMP)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(25.751006598945605, rel=1e-6)


def test_gaussian_scale_zero_sensitivity():
    assert gaussian_scale(0.0, 0.5, 0.1) == 0.0


@pytest.mark.parametrize("eps,delta", [(1.5, 0.1), (0.0, 0.1), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)])
def test_gaussian_scale_rejects_bad_budget(eps, delta):
    with pytest.raises(BudgetInvalid):
        gaussian_scale(1.0, eps, delta)


def test_laplace_scale():
    assert laplace_scale(2.0, 0.5) == pytest.approx(4.0, rel=1e-12)
    assert laplace_scale(0.0, 0.5) == 0.0
    with pytest.raises(BudgetInvalid):
        laplace_scale(1.0, 0.0)


def test_gaussian_scale_monotonicity():
    base = gaussian_scale(1.0, 0.5, 0.05)
    assert gaussian_scale(2.0, 0.5, 0.05) > base
    assert gaussian_scale(1.0, 0.6, 0.05) < base
    assert gaussian_scale(1.0, 0.5, 0.06) < base


def test_samplers_deterministic_and_degenerate():
    a = sample_gaussian_vector(16, 4.0, seed=42)
    b = sample_gaussian_vector(16, 4.0, seed=42)
    assert np.array_equal(a, b)
    assert np.array_equal(sample_gaussian_vector(8, 0.0, seed=1), np.zeros(8))
    assert np.array_equal(sample_laplace_vector(8, 0.0, seed=1), np.zeros(8))
    with pytest.raises(ValueError):
        sample_gaussian_vector(8, -1.0, seed=1)
    with pytest.raises(ValueError):
        sample_laplace_vector(8, -1.0, seed=1)


def test_sampler_variances():
    n = 1_000_000
    g = sample_gaussian_vector(n, 4.0, seed=7)
    assert abs(g.var() / 4.0 - 1.0) <= 0.05
    lap = sample_laplace_vector(n, 3.0, seed=8)
    assert abs(lap.var() / (2.0 * 3.0 ** 2) - 1.0) <= 0.05


def test_symmetric_offdiag_block_structure():
    rng = np.random.default_rng(11)
    t = sample_symmetric_offdiag_gaussian(6, 2.0, rng)
    assert np.array_equal(t, t.T)
    assert np.all(np.diag(t) == 0.0)
    assert np.count_nonzero(t) == 6 * 5  # all off-diagonal entries populated


# ---------------------------------------------------------------------------
# Context building
# ---------------------------------------------------------------------------


def test_context_eta2_hand_value():
    ctx = _hand_context()
    assert ctx.eta2 == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_context_zeta_hand_value():
    bounds = NormBounds(row_bound_B=1.0, col_min_C=4.0)
    spectrum = GramSpectrum(np.eye(50), 1.0, 1.0, math.sqrt(50.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.01)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    assert ctx.zeta == pytest.approx(185.30923345104162, rel=1e-12)
    assert ctx.zeta == pytest.approx(oracle_zeta(50, 1.0, 0.01), rel=1e-12)


def test_context_delta2_floor():
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.5)
    assert 0.5 < delta2_floor(2)
    with pytest.raises(DeltaTooSmall):
        build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)


def test_gram_sensitivities_hand_values():
    ctx = _hand_context()
    lam_sens, frob_sens = ctx.lambda_min_sensitivity, ctx.gram_frobenius_sensitivity
    assert lam_sens == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert frob_sens == pytest.approx((1.0 / 3.0) * 2.0 * math.sqrt(2.0), rel=1e-12)
    assert frob_sens == pytest.approx(0.9428090415820634, rel=1e-9)


def test_gram_sensitivities_vanish_with_tiny_rows():
    bounds = NormBounds(row_bound_B=1e-9, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    lam_sens, frob_sens = ctx.lambda_min_sensitivity, ctx.gram_frobenius_sensitivity
    assert lam_sens <= 1e-15 and frob_sens <= 1e-15


# ---------------------------------------------------------------------------
# Sensitivity formulas against the oracles
# ---------------------------------------------------------------------------


def test_pair_sensitivity_hand_instance():
    ctx = _hand_context()
    got = ctx.crossprod_sensitivity
    want = oracle_pair_sensitivity(1.0, 2.0, 1.0, 1.0, 4.0 * math.sqrt(2.0), 1.0, 1.0, 0.9, 2)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(24.465320306036865, rel=1e-10)


def test_estimate_sensitivity_hand_instance():
    ctx = _hand_context()
    got = ctx.estimate_sensitivity
    want = oracle_estimate_sensitivity(1.0, 2.0, 1.0, 1.0, 1.0, 0.9, 2)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(21.50697823897233, rel=1e-10)


def test_sensitivities_match_oracle_on_random_contexts():
    rng = np.random.default_rng(2024)
    checked_estimate = 0
    for trial in range(50):
        p = int(rng.integers(2, 13))
        n = int(rng.integers(6 * p, 20 * p))
        beta_norm = float(rng.uniform(0.0, 10.0))
        sigma2 = float(rng.uniform(0.2, 4.0))
        lo = min(0.9, delta2_floor(p) * 1.2 + 1e-4)
        delta_2 = float(rng.uniform(lo, 0.99))
        ctx, bounds, spectrum = _context_from_design(
            n, p, 3000 + trial, beta_norm=beta_norm, sigma2=sigma2, delta_2=delta_2
        )
        want_pair = oracle_pair_sensitivity(
            bounds.row_bound_B, bounds.col_min_C,
            spectrum.lambda_min, spectrum.lambda_max,
            ctx.frobenius_sigma_raw, beta_norm, sigma2, delta_2, p,
        )
        assert ctx.crossprod_sensitivity == pytest.approx(want_pair, rel=1e-10)
        denom = (1.0 - ctx.eta2) * spectrum.lambda_min - ctx.eta2
        if denom > 0:
            want_est = oracle_estimate_sensitivity(
                bounds.row_bound_B, bounds.col_min_C, spectrum.lambda_min,
                beta_norm, sigma2, delta_2, p,
            )
            assert ctx.estimate_sensitivity == pytest.approx(want_est, rel=1e-10)
            checked_estimate += 1
    assert checked_estimate >= 25  # most random contexts must exercise the estimate path


def test_pair_sensitivity_zero_signal_reduction():
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 4.0 * math.sqrt(2.0), budget)
    eta = math.sqrt(ctx.eta2)
    want = math.sqrt(ctx.zeta) * (2.0 * math.sqrt(ctx.gamma) + eta * math.sqrt(3.0 + 2.0 + 1.0))
    assert ctx.crossprod_sensitivity == pytest.approx(want, rel=1e-12)


def test_pair_sensitivity_limit_small_eta():
    # B -> 0 with zero signal leaves only the 2*sqrt(zeta*gamma) term
    bounds = NormBounds(row_bound_B=1e-8, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    assert ctx.crossprod_sensitivity == pytest.approx(
        2.0 * math.sqrt(ctx.zeta * ctx.gamma), rel=1e-6
    )


def test_estimate_sensitivity_precondition():
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)  # eta2 = 1/3, threshold 0.5
    spectrum = GramSpectrum(np.eye(2) * 0.4, 0.4, 0.4, 0.4 * math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    with pytest.raises(PrivacyPreconditionFailed) as refused:
        ctx.estimate_sensitivity
    # eta^2 and lambda_min are facts of the private data: the message names the check
    assert str(refused.value) == (
        "estimate release needs (1 - eta^2)*lambda_min > eta^2, with lambda_min the "
        "effective eigenvalue. Ridge stabilization (a positive ridge_omega2) raises it "
        "when eta^2 < 1; with eta^2 >= 1 the norm bounds are too loose."
    )
    # ridge stabilization rescues it: effective lambda_min = 0.4 + 0.3 > 0.5
    assert dataclasses.replace(ctx, ridge_omega2=0.3).estimate_sensitivity > 0
    with pytest.raises(ValueError, match="^ridge_omega2 must be nonnegative$"):
        dataclasses.replace(ctx, ridge_omega2=-0.1).estimate_sensitivity
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^ridge_omega2 must be finite$"):
            dataclasses.replace(ctx, ridge_omega2=bad).estimate_sensitivity


def test_estimate_sensitivity_limit():
    bounds = NormBounds(row_bound_B=1e-8, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2) * 0.8, 0.8, 0.8, 0.8 * math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    assert ctx.estimate_sensitivity == pytest.approx(2.0 * math.sqrt(ctx.zeta / 0.8), rel=1e-6)


# ---------------------------------------------------------------------------
# Structured noise and releases
# ---------------------------------------------------------------------------


def test_assembled_noise_structure():
    rng = np.random.default_rng(5)
    p = 4
    theta_2 = sample_symmetric_offdiag_gaussian(p, 1.0, rng)
    theta_1 = 0.7
    e = paired_blocks(theta_2, theta_1)
    assert np.array_equal(e, e.T)
    # off-diagonal identity blocks carry theta_1 on their diagonals
    for i in range(p):
        assert e[i, i + p] == pytest.approx(theta_1 + theta_2[i, i])
        assert e[i, i] == theta_2[i, i] == 0.0
    # all four blocks share theta_2 off the block diagonals
    assert np.array_equal(e[:p, :p], theta_2)
    assert np.array_equal(e[p:, p:], theta_2)
    assert np.array_equal(e[:p, p:] - theta_1 * np.eye(p), theta_2)
    assert np.array_equal(paired_blocks(np.zeros((p, p)), 0.0), np.zeros((2 * p, 2 * p)))


def test_assembled_noise_is_its_definition_bitwise():
    # E = theta_1 [[0, I], [I, 0]] + [[1, 1], [1, 1]] (x) theta_2, bit for bit
    rng = np.random.default_rng(6)
    for trial in range(300):
        p = int(rng.integers(1, 40))
        theta_2 = sample_symmetric_offdiag_gaussian(p, float(rng.uniform(0.0, 1e6)), rng)
        theta_1 = (0.0, -0.0, float(rng.laplace(0.0, 10.0 ** rng.uniform(-300, 300))))[trial % 3]
        swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(p))
        want = theta_1 * swap + np.kron(np.ones((2, 2)), theta_2)
        assert paired_blocks(theta_2, theta_1).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [
    7, np.int64(7), np.random.SeedSequence(7).spawn(3)[2],
    np.random.SeedSequence(7, spawn_key=(1, 2)),
], ids=["int", "numpy-int", "spawned", "keyed"])
def test_substream_extends_the_seed_spawn_key_by_its_label(seed):
    if isinstance(seed, np.random.SeedSequence):
        entropy, key = seed.entropy, seed.spawn_key
    else:
        entropy, key = seed, ()
    for label in (0, 1, 2):
        want = np.random.SeedSequence(entropy, spawn_key=(*key, label))
        got = privacy._substream(seed, label).random(16)
        assert got.tobytes() == np.random.default_rng(want).random(16).tobytes()


_RELEASE_BUDGET = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05,
                                eps_1=0.2, eps_2=0.2, delta=0.05)


def _release_dataset(n=200, p=10, seed=21):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = 2.0
    y = x @ beta + rng.standard_normal(n)
    oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
    return Dataset.from_arrays(x, y), oracle


def _release_inputs():
    ds, oracle = _release_dataset()
    spectrum = gram_spectrum(ds)
    ks = knockoff_summary(ds, spectrum)
    ctx = build_sensitivity_context(
        compute_bounds(ds), oracle, spectrum, raw_gram_frobenius(ds), _RELEASE_BUDGET
    )
    return ks, ctx, _RELEASE_BUDGET


def test_release_pair_zero_noise_passthrough(zero_draws):
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, seed=3)
    assert np.array_equal(rel.gram_noisy, ks.gram_g)
    assert np.array_equal(rel.crossprod_noisy, ks.crossprod)
    # zero draws still report what was spent
    assert rel.total_privacy == budget.totals("1")


def test_release_pair_recorded_scales():
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, seed=3)
    scales = ctx.noise_scales("1")  # what the release draws at
    lam_sens, frob_sens = ctx.lambda_min_sensitivity, ctx.gram_frobenius_sensitivity
    assert scales["theta1_scale"] == pytest.approx(lam_sens / budget.eps_1, rel=1e-12)
    assert scales["kappa1_sq"] == pytest.approx(
        gaussian_scale(frob_sens, budget.eps_2, budget.delta), rel=1e-12
    )
    assert scales["kappa2_sq"] == pytest.approx(
        gaussian_scale(ctx.crossprod_sensitivity, budget.eps, budget.delta_1), rel=1e-12
    )
    assert rel.total_privacy == budget.totals("1") == (
        pytest.approx(budget.eps + budget.eps_1 + budget.eps_2),
        pytest.approx(budget.delta + budget.delta_1 + budget.delta_2),
    )


def test_release_pair_theta1_scale_hand_value():
    # eta2=1/3, lambda_min=1, eps_1=0.05 -> Laplace scale (2/3)/0.05
    ctx = _hand_context()
    assert laplace_scale(ctx.lambda_min_sensitivity, 0.05) == pytest.approx(
        13.333333333333332, rel=1e-12
    )
    assert ctx.theta1_scale == laplace_scale(ctx.lambda_min_sensitivity, 0.05)


def test_release_pair_kappa1_hand_value():
    got = gaussian_scale((1.0 / 3.0) * (math.sqrt(2.0) + math.sqrt(2.0)), 0.05, 0.1)
    assert got == pytest.approx(1796.0737026192041, rel=1e-8)


def test_release_pair_deterministic_in_seed():
    ks, ctx, budget = _release_inputs()
    r1 = release_pair(ks, ctx, seed=11)
    r2 = release_pair(ks, ctx, seed=11)
    r3 = release_pair(ks, ctx, seed=12)
    assert np.array_equal(r1.gram_noisy, r2.gram_noisy)
    assert np.array_equal(r1.crossprod_noisy, r2.crossprod_noisy)
    assert not np.array_equal(r1.crossprod_noisy, r3.crossprod_noisy)


def test_release_pair_requires_full_budget():
    ks, ctx, _ = _release_inputs()
    partial = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05)
    with pytest.raises(BudgetInvalid):
        release_pair(ks, dataclasses.replace(ctx, budget=partial), seed=1)


def test_release_estimate_zero_noise_matches_ols(zero_draws):
    ks, ctx, budget = _release_inputs()
    rel = release_estimate(ks, ctx, seed=5)
    direct = np.linalg.solve(ks.gram_g, ks.crossprod)
    assert np.array_equal(rel.estimate_noisy, direct)


def test_release_estimate_scales_and_ridge():
    ks, ctx, budget = _release_inputs()
    ridged = dataclasses.replace(ctx, ridge_omega2=0.5)
    rel = release_estimate(ks, ridged, seed=5)
    scales = ridged.noise_scales("2")  # what the release draws at
    sens = ridged.estimate_sensitivity
    assert scales["estimate_sensitivity"] == sens
    assert scales["kappa_sq"] == pytest.approx(
        gaussian_scale(sens, budget.eps, budget.delta_1), rel=1e-12
    )
    assert rel.total_privacy == budget.totals("2") == (
        pytest.approx(budget.eps), pytest.approx(budget.delta_1 + budget.delta_2)
    )
    # ridge shifts every augmented-Gram eigenvalue by exactly omega^2
    base = np.linalg.eigvalsh(ks.gram_g)
    shifted = np.linalg.eigvalsh(ks.gram_g + 0.5 * np.eye(ks.gram_g.shape[0]))
    assert np.max(np.abs(shifted - (base + 0.5))) <= 1e-10


def test_budget_validation():
    with pytest.raises(BudgetInvalid):
        PrivacyBudget(eps=1.5, delta_1=0.1, delta_2=0.1)
    with pytest.raises(BudgetInvalid):
        PrivacyBudget(eps=0.5, delta_1=0.0, delta_2=0.1)
    with pytest.raises(BudgetInvalid):
        PrivacyBudget(eps=0.5, delta_1=0.1, delta_2=0.1, eps_1=-0.1)
    # an infinite eps_1 or eps_2 would calibrate zero noise, a nan one nan noise
    for name in ("eps_1", "eps_2"):
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(BudgetInvalid, match=name):
                PrivacyBudget(eps=0.5, delta_1=0.1, delta_2=0.1, **{name: bad})
    # eps_2 feeds the Gaussian mechanism, whose calibration holds for eps < 1 only
    for bad in (1.0, 1.5):
        with pytest.raises(BudgetInvalid, match=rf"^eps_2 must lie in \(0,1\), got {bad}$"):
            PrivacyBudget(eps=0.5, delta_1=0.1, delta_2=0.1, eps_2=bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(BudgetInvalid):
            PrivacyBudget(eps=bad, delta_1=0.1, delta_2=0.1)
        with pytest.raises(BudgetInvalid):
            PrivacyBudget(eps=0.5, delta_1=0.1, delta_2=0.1, delta=bad)


def test_budget_totals_by_method():
    full = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05, eps_1=0.2, eps_2=0.1, delta=0.02)
    assert full.totals("1") == (0.4 + 0.2 + 0.1, 0.02 + 0.05 + 0.05)
    assert full.totals("2") == (0.4, 0.05 + 0.05)
    bare = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05)
    assert bare.totals("2") == (0.4, 0.1)
    with pytest.raises(BudgetInvalid, match="missing eps_1, eps_2, delta$"):
        bare.totals("1")
    with pytest.raises(ValueError, match="unknown release method"):
        full.totals("none")


def test_context_derives_eta2_gamma_and_p():
    ctx = _hand_context()
    assert [f.name for f in dataclasses.fields(ctx)] == [
        "bounds", "oracle", "spectrum", "frobenius_sigma_raw", "budget", "ridge_omega2"
    ]
    assert ctx.b_over_eta == pytest.approx(1.0 / math.sqrt(ctx.eta2), rel=1e-15)
    assert ctx.gamma == 2.0 * ctx.spectrum.lambda_max - ctx.spectrum.lambda_min
    # p is the spectrum's 2, whose floor 2*exp(-1) this delta_2 does not clear
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.01)
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    with pytest.raises(DeltaTooSmall):
        build_sensitivity_context(ctx.bounds, oracle, ctx.spectrum, 1.0, budget)


def test_calibrate_refuses_non_finite_scales():
    ks, ctx, budget = _release_inputs()
    huge = dataclasses.replace(ctx, oracle=ModelOracle(beta_norm_bound=1e200, sigma2_bound=1.0))
    with pytest.raises(PrivacyPreconditionFailed, match="kappa2_sq=inf"):
        huge.noise_scales("1")
    with pytest.raises(PrivacyPreconditionFailed, match="kappa_sq=inf"):
        release_estimate(ks, huge, seed=1)
    assert gaussian_scale(1e300, 0.5, 0.1) == math.inf


def test_pair_scales_need_their_knobs():
    _, ctx, budget = _release_inputs()
    theta1, kappa1 = ctx.theta1_scale, ctx.kappa1_sq
    record = ctx.noise_scales("1")
    assert (theta1, kappa1) == (record["theta1_scale"], record["kappa1_sq"])
    assert all(record[key] == getattr(ctx, key) for key in record if not key.endswith("_total"))
    only_eps1 = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05, eps_1=0.2, eps_2=0.2)
    got = dataclasses.replace(ctx, budget=only_eps1)
    assert (got.theta1_scale, got.kappa1_sq) == (theta1, None)
    bare = dataclasses.replace(ctx, budget=PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05))
    assert (bare.theta1_scale, bare.kappa1_sq) == (None, None)
    with pytest.raises(BudgetInvalid, match="missing eps_1, eps_2, delta$"):
        bare.noise_scales("1")
    with pytest.raises(ValueError, match="unknown release method"):
        ctx.noise_scales("none")


RECORD_FACTS = (
    "zeta", "eta2", "gamma", "lambda_min_sensitivity", "gram_frobenius_sensitivity",
    "crossprod_sensitivity", "estimate_sensitivity",
    "theta1_scale", "kappa1_sq", "kappa2_sq", "kappa_sq",
)


def test_calibrate_evaluates_each_pair_sensitivity_once(monkeypatch):
    # every fact read twice, and through both records: each formula runs once
    _, ctx, _ = _release_inputs()
    calls = []

    def spy(name, real):
        return lambda *a: calls.append(name) or real(*a)

    for name in ("crossprod_sensitivity", "estimate_sensitivity"):
        prop = getattr(SensitivityContext, name)
        monkeypatch.setattr(prop, "func", spy(name, prop.func))
    for name in ("gaussian_scale", "laplace_scale"):
        monkeypatch.setattr(privacy, name, spy(name, getattr(privacy, name)))
    first = {name: getattr(ctx, name) for name in RECORD_FACTS}
    records = ctx.noise_scales("1"), ctx.noise_scales("2")
    for name in set(RECORD_FACTS) - {"eta2", "gamma"}:  # cached: the very same object
        assert getattr(ctx, name) is first[name], name
    assert records == (ctx.noise_scales("1"), ctx.noise_scales("2"))
    assert sorted(calls) == sorted([
        "crossprod_sensitivity", "estimate_sensitivity", "laplace_scale",
        "gaussian_scale", "gaussian_scale", "gaussian_scale",
    ])


def test_replaced_budget_derives_every_fact_afresh():
    _, ctx, _ = _release_inputs()
    for name in RECORD_FACTS:  # fill the caches at the old budget
        getattr(ctx, name)
    b2 = PrivacyBudget(eps=0.2, delta_1=0.01, delta_2=0.2, eps_1=0.1, eps_2=0.4, delta=0.02)
    replaced = dataclasses.replace(ctx, budget=b2)
    built = build_sensitivity_context(
        ctx.bounds, ctx.oracle, ctx.spectrum, ctx.frobenius_sigma_raw, b2
    )
    for field in dataclasses.fields(ctx):
        assert getattr(replaced, field.name) is getattr(built, field.name) or (
            getattr(replaced, field.name) == getattr(built, field.name)
        ), field.name
    for name in RECORD_FACTS:
        assert getattr(replaced, name) == getattr(built, name), name
    assert replaced.zeta != ctx.zeta and replaced.kappa_sq != ctx.kappa_sq
    assert replaced.noise_scales("1") == built.noise_scales("1")
    assert replaced.noise_scales("2") == built.noise_scales("2")
    # zeta is derived, so a replaced delta_2 below its floor is refused, not kept stale
    with pytest.raises(DeltaTooSmall):
        dataclasses.replace(ctx, budget=dataclasses.replace(b2, delta_2=1e-3)).zeta


def _reachable(obj):
    """Every ndarray and float reachable from ``obj`` through dataclass fields,
    tuples, lists, sets and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (float, np.floating)):
        yield float(obj)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _reachable(getattr(obj, field.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _reachable(value)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for value in obj:
            yield from _reachable(value)


@pytest.mark.parametrize("method", ["1", "2"])
def test_private_result_holds_no_exact_fact_of_the_data(method):
    # a private run's result is post-processing of its release: nothing in it
    # may equal, bit for bit, an exact summary of the data or its calibration
    ds, oracle = _release_dataset()
    ks, ctx, budget = _release_inputs()
    hidden_arrays = [ks.gram_g, ks.crossprod, ctx.spectrum.sigma_prime, ds.gram, ds.xty]
    hidden_floats = {getattr(ctx, name) for name in RECORD_FACTS} | {
        ctx.spectrum.lambda_min, ctx.spectrum.lambda_max, ctx.spectrum.frobenius_norm,
        ctx.bounds.row_bound_B, ctx.bounds.col_min_C, ctx.frobenius_sigma_raw,
    }
    result = run_knockoff_filter(ds, q=0.2, method=method, budget=budget, oracle=oracle, seed=3)
    reached = list(_reachable(result))
    floats = [v for v in reached if isinstance(v, float)]
    arrays = [v for v in reached if isinstance(v, np.ndarray)]
    assert set(budget.totals(method)) <= set(floats) and len(arrays) >= 3  # the walk got there
    assert not hidden_floats & set(floats)
    for got in arrays:
        for hidden in hidden_arrays:
            assert got.shape != hidden.shape or got.tobytes() != hidden.tobytes()


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.integers(4, 12),
    n_factor=st.sampled_from([2, 3, 10, 100]),
    log_scales=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
    k=st.integers(1, 16),
    method=st.sampled_from(["1", "2"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_bound_close_to_c_min_is_finite_or_refused(p, n_factor, log_scales, k, method, seed):
    # B = C_min (1 - 10^-k) sends eta^2 toward 1/(2 * 10^-k): the filter returns
    # finite statistics or refuses the calibration, never a numerical failure.
    # Columns scaled over 1e-3..1e3 put C_min below some row norm, and a row
    # bound below the data is refused; a tall design with column scales within
    # a factor of 3 keeps every row norm below C_min, so B -> C_min reaches
    # the release there.
    rng = np.random.default_rng(seed)
    log_scales = np.asarray(log_scales[:p])
    budget = PrivacyBudget(eps=0.5, delta_1=0.05, delta_2=0.5, eps_1=0.3, eps_2=0.3, delta=0.05)
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    for n, scales, tall in (
        (n_factor * p, 10.0 ** log_scales, False),
        (100 * p, 3.0 ** (log_scales / 6.0), True),
    ):
        x = rng.standard_normal((n, p)) * scales
        ds = Dataset.from_arrays(x, x[:, 0] + rng.standard_normal(n))
        c_min = float(ds.col_norms.min())
        row_max = float(np.sqrt(np.einsum("ij,ij->i", x, x).max()))

        def run(row_bound):
            return run_knockoff_filter(
                ds, q=0.2, method=method, budget=budget, oracle=oracle,
                row_bound_override=row_bound, seed=seed,
            )

        with pytest.raises(BoundViolation):
            run(c_min)
        b = c_min * (1.0 - 10.0 ** -k)
        if b >= c_min:  # 1 - 10^-16 rounded B up to C_min, checked above
            continue
        if b < row_max:
            assert not tall, "the tall design must keep every row below B"
            with pytest.raises(BoundViolation, match="below the observed maximum row norm"):
                run(b)
            continue
        try:
            result = run(b)
        except PrivacyPreconditionFailed:
            continue
        assert np.all(np.isfinite(result.report.w.w))


# ---------------------------------------------------------------------------
# Neighbour audit: what replacing one row moves, against its sensitivity
# ---------------------------------------------------------------------------

_AUDIT_BUDGET = PrivacyBudget(eps=0.5, delta_1=0.05, delta_2=0.5, eps_1=0.3, eps_2=0.3, delta=0.05)


def _outcome(call):
    """``(call(), None)``, or ``(None, refusal)``: the package error it raised
    with the raise statement that refused it."""
    try:
        return call(), None
    except DPKnockoffError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return None, (exc, (type(exc), frame.filename, frame.lineno))


def _calibrations(ds, spectrum, oracle, row_bound):
    """The calibration ``dpknockoff calibrate`` runs: the context, or None, and
    the refusal of each step (building the context, then each method's scales)."""
    ctx, refused = _outcome(lambda: build_sensitivity_context(
        compute_bounds(ds, row_bound), oracle, spectrum, raw_gram_frobenius(ds), _AUDIT_BUDGET))
    if ctx is None:
        return None, [refused]
    return ctx, [None, *(_outcome(functools.partial(ctx.noise_scales, m))[1] for m in "12")]


def _neighbour_row(direction, x, i, sigma_prime, col_norms, rng):
    p = x.shape[1]
    if direction == "random":
        return rng.standard_normal(p)
    if direction == "column":
        return np.eye(p)[rng.integers(p)]
    if direction == "bottom":  # D r along the bottom eigenvector of S'
        return np.linalg.eigh(sigma_prime)[1][:, 0] * col_norms
    return -x[i]


def _at_audit_deltas(ctx):
    """The record, and for p >= 8 the same record at delta_2 = 0.05 (floor 0.037
    at p = 8), where the rate of the data-dependent bounds can be checked."""
    if ctx.spectrum.sigma_prime.shape[0] < 8:
        return (ctx,)
    return ctx, dataclasses.replace(ctx, budget=dataclasses.replace(ctx.budget, delta_2=0.05))


def _audit_neighbours(p, n_factor, rho, log_scales, fractions, seed):
    """Replace one row per direction and check what moves against its sensitivity.

    The moves of lambda_min(S') and S' are bounded outright and asserted.  The
    moves of [X' Xt]^T y and of the OLS estimate on the augmented design are
    bounded only where the response noise lies in the calibration's
    1 - delta_2 event, so they are returned, not asserted: a list of
    (delta_2, direction, kind, moved / sensitivity).
    """
    # one tall design, equicorrelated with columns scaled by 0.5..2, and one
    # neighbour per direction: a row replaced by one of norm frac * B <= B,
    # its response redrawn from the model
    rng = np.random.default_rng(seed)
    n = n_factor * p
    z, common = rng.standard_normal((n, p)), rng.standard_normal((n, 1))
    x = (np.sqrt(1.0 - rho) * z + np.sqrt(rho) * common) * 2.0 ** np.asarray(log_scales[:p])
    beta = np.zeros(p)
    beta[: p // 2] = 1.0
    y = x @ beta + rng.standard_normal(n)
    oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
    ds = Dataset.from_arrays(x, y)
    b = math.sqrt(ds.row_norm_sq_max)
    spectrum = gram_spectrum(ds)
    ks = knockoff_summary(ds, spectrum)  # both sides share the default probe of (n, p)
    estimate = estimate_coefficients(ks.gram_g, ks.crossprod)
    calibration = _calibrations(ds, spectrum, oracle, b)
    ratios = []
    for direction, frac in zip(("random", "column", "bottom", "negative"), fractions):
        i = int(rng.integers(n))
        row = _neighbour_row(direction, x, i, spectrum.sigma_prime, ds.col_norms, rng)
        x2, y2 = x.copy(), y.copy()
        x2[i] = row * (frac * b / np.linalg.norm(row))
        y2[i] = x2[i] @ beta + rng.standard_normal()
        ds2 = Dataset.from_arrays(x2, y2)
        spectrum2 = gram_spectrum(ds2)
        d_lambda = abs(spectrum2.lambda_min - spectrum.lambda_min)
        d_frob = float(np.linalg.norm(spectrum2.sigma_prime - spectrum.sigma_prime))
        ks2 = knockoff_summary(ds2, spectrum2)
        moved = {
            "crossprod": float(np.linalg.norm(ks2.crossprod - ks.crossprod)),
            "estimate": float(np.linalg.norm(
                estimate_coefficients(ks2.gram_g, ks2.crossprod) - estimate)),
        }
        calibration2 = _calibrations(ds2, spectrum2, oracle, b)
        for ctx, _ in (calibration, calibration2):
            if ctx is None:  # B >= C_min: refused, nothing calibrated
                continue
            assert d_lambda <= ctx.lambda_min_sensitivity, (direction, d_lambda)
            assert d_frob <= ctx.gram_frobenius_sensitivity, (direction, d_frob)
            for at in _at_audit_deltas(ctx):
                sens = {"crossprod": at.crossprod_sensitivity}
                with contextlib.suppress(PrivacyPreconditionFailed):  # no finite bound
                    sens["estimate"] = at.estimate_sensitivity
                ratios += [(at.budget.delta_2, direction, kind, moved[kind] / sens[kind])
                           for kind in sens]
        # a refusal names its check, never a value of the data it refused
        for one, two in zip(calibration[1], calibration2[1]):
            if one is not None and two is not None and one[1] == two[1]:
                assert str(one[0]) == str(two[0])
    return ratios


_NEIGHBOUR_DESIGNS = given(
    p=st.integers(4, 12),
    n_factor=st.integers(20, 100),
    rho=st.floats(0.0, 0.6),
    log_scales=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    fractions=st.lists(st.floats(0.5, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)

# Each side's product and estimate bounds hold on its own 1 - delta_2 event,
# so an example (two sides) moves one past its bound with probability at most
# 2 * delta_2, independently across examples.  The count of such examples may
# not exceed the 1 - 1e-6 quantile of Binomial(examples, 2 * delta_2); at the
# audit's delta_2 = 0.5 that bound is vacuous, at 0.05 it is not.
_RATE_TAIL = 1e-6


def _audit_neighbour_designs(max_examples):
    """Run the audit over ``max_examples`` designs; the per-example ratios."""
    examples = []

    @settings(max_examples=max_examples, deadline=None, derandomize=True)
    @_NEIGHBOUR_DESIGNS
    def audit(p, n_factor, rho, log_scales, fractions, seed):
        examples.append(_audit_neighbours(p, n_factor, rho, log_scales, fractions, seed))

    audit()
    for delta_2 in (_AUDIT_BUDGET.delta_2, 0.05):
        worst = [max(r for d, _, _, r in ratios if d == delta_2)
                 for ratios in examples if any(d == delta_2 for d, *_ in ratios)]
        assert worst, delta_2  # the audit reached the calibrated bounds
        violations = sum(w > 1.0 for w in worst)
        allowed = binom.ppf(1.0 - _RATE_TAIL, len(worst), min(1.0, 2.0 * delta_2))
        assert violations <= allowed, (delta_2, violations, len(worst))
    return examples


def test_one_replaced_row_moves_the_gram_within_its_sensitivities():
    _audit_neighbour_designs(300)


@pytest.mark.slow
def test_one_replaced_row_moves_the_gram_within_its_sensitivities_at_scale():
    _audit_neighbour_designs(5000)
