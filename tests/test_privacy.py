import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpknockoff import (
    BoundViolation,
    BudgetInvalid,
    Dataset,
    DeltaTooSmall,
    ModelOracle,
    PrivacyBudget,
    PrivacyPreconditionFailed,
    run_knockoff_filter,
)
from dpknockoff.design import NormBounds, compute_bounds
from dpknockoff.knockoffs import GramSpectrum, gram_spectrum, knockoff_summary, raw_gram_frobenius
from dpknockoff.privacy import (
    STRICTNESS_BUMP,
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
    lam_sens, frob_sens = gram_sensitivities(ctx)
    assert lam_sens == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert frob_sens == pytest.approx((1.0 / 3.0) * 2.0 * math.sqrt(2.0), rel=1e-12)
    assert frob_sens == pytest.approx(0.9428090415820634, rel=1e-9)


def test_gram_sensitivities_vanish_with_tiny_rows():
    bounds = NormBounds(row_bound_B=1e-9, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    lam_sens, frob_sens = gram_sensitivities(ctx)
    assert lam_sens <= 1e-15 and frob_sens <= 1e-15


# ---------------------------------------------------------------------------
# Sensitivity formulas against the oracles
# ---------------------------------------------------------------------------


def test_pair_sensitivity_hand_instance():
    ctx = _hand_context()
    got = pair_crossprod_sensitivity(ctx)
    want = oracle_pair_sensitivity(1.0, 2.0, 1.0, 1.0, 4.0 * math.sqrt(2.0), 1.0, 1.0, 0.9, 2)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(24.465320306036865, rel=1e-10)


def test_estimate_sensitivity_hand_instance():
    ctx = _hand_context()
    got = estimate_sensitivity(ctx)
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
        assert pair_crossprod_sensitivity(ctx) == pytest.approx(want_pair, rel=1e-10)
        denom = (1.0 - ctx.eta2) * spectrum.lambda_min - ctx.eta2
        if denom > 0:
            want_est = oracle_estimate_sensitivity(
                bounds.row_bound_B, bounds.col_min_C, spectrum.lambda_min,
                beta_norm, sigma2, delta_2, p,
            )
            assert estimate_sensitivity(ctx) == pytest.approx(want_est, rel=1e-10)
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
    assert pair_crossprod_sensitivity(ctx) == pytest.approx(want, rel=1e-12)


def test_pair_sensitivity_limit_small_eta():
    # B -> 0 with zero signal leaves only the 2*sqrt(zeta*gamma) term
    bounds = NormBounds(row_bound_B=1e-8, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    assert pair_crossprod_sensitivity(ctx) == pytest.approx(
        2.0 * math.sqrt(ctx.zeta * ctx.gamma), rel=1e-6
    )


def test_estimate_sensitivity_precondition():
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)  # eta2 = 1/3, threshold 0.5
    spectrum = GramSpectrum(np.eye(2) * 0.4, 0.4, 0.4, 0.4 * math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    with pytest.raises(PrivacyPreconditionFailed):
        estimate_sensitivity(ctx)
    # ridge stabilization rescues it: effective lambda_min = 0.4 + 0.3 > 0.5
    assert estimate_sensitivity(ctx, ridge_omega2=0.3) > 0


def test_estimate_sensitivity_limit():
    bounds = NormBounds(row_bound_B=1e-8, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2) * 0.8, 0.8, 0.8, 0.8 * math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=0.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 1.0, budget)
    assert estimate_sensitivity(ctx) == pytest.approx(2.0 * math.sqrt(ctx.zeta / 0.8), rel=1e-6)


# ---------------------------------------------------------------------------
# Structured noise and releases
# ---------------------------------------------------------------------------


def test_assembled_noise_structure():
    rng = np.random.default_rng(5)
    p = 4
    theta_2 = sample_symmetric_offdiag_gaussian(p, 1.0, rng)
    theta_1 = 0.7
    e = assemble_gram_noise(theta_1, theta_2)
    assert np.array_equal(e, e.T)
    # off-diagonal identity blocks carry theta_1 on their diagonals
    for i in range(p):
        assert e[i, i + p] == pytest.approx(theta_1 + theta_2[i, i])
        assert e[i, i] == theta_2[i, i] == 0.0
    # all four blocks share theta_2 off the block diagonals
    assert np.array_equal(e[:p, :p], theta_2)
    assert np.array_equal(e[p:, p:], theta_2)
    assert np.array_equal(e[:p, p:] - theta_1 * np.eye(p), theta_2)
    assert np.array_equal(assemble_gram_noise(0.0, np.zeros((p, p))), np.zeros((2 * p, 2 * p)))


def _release_inputs(n=200, p=10, seed=21):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = 2.0
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    spectrum = gram_spectrum(ds)
    ks = knockoff_summary(ds, spectrum)
    bounds = compute_bounds(ds)
    oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05,
                           eps_1=0.2, eps_2=0.2, delta=0.05)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, raw_gram_frobenius(ds), budget)
    return ks, ctx, budget


def test_release_pair_zero_noise_passthrough(zero_draws):
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, budget, seed=3)
    assert np.array_equal(rel.gram_noisy, ks.gram_g)
    assert np.array_equal(rel.crossprod_noisy, ks.crossprod)
    # zero draws leave the record as calibrated: it reports what was spent
    assert rel.noise_scales == calibrate(ctx, budget, "1")


def test_release_pair_recorded_scales():
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, budget, seed=3)
    lam_sens, frob_sens = gram_sensitivities(ctx)
    assert rel.noise_scales["theta1_scale"] == pytest.approx(lam_sens / budget.eps_1, rel=1e-12)
    assert rel.noise_scales["kappa1_sq"] == pytest.approx(
        gaussian_scale(frob_sens, budget.eps_2, budget.delta), rel=1e-12
    )
    assert rel.noise_scales["kappa2_sq"] == pytest.approx(
        gaussian_scale(pair_crossprod_sensitivity(ctx), budget.eps, budget.delta_1), rel=1e-12
    )
    assert rel.total_privacy() == (
        pytest.approx(budget.eps + budget.eps_1 + budget.eps_2),
        pytest.approx(budget.delta + budget.delta_1 + budget.delta_2),
    )


def test_release_pair_theta1_scale_hand_value():
    # eta2=1/3, lambda_min=1, eps_1=0.05 -> Laplace scale (2/3)/0.05
    ctx = _hand_context()
    lam_sens, _ = gram_sensitivities(ctx)
    assert laplace_scale(lam_sens, 0.05) == pytest.approx(13.333333333333332, rel=1e-12)


def test_release_pair_kappa1_hand_value():
    got = gaussian_scale((1.0 / 3.0) * (math.sqrt(2.0) + math.sqrt(2.0)), 0.05, 0.1)
    assert got == pytest.approx(1796.0737026192041, rel=1e-8)


def test_release_pair_deterministic_in_seed():
    ks, ctx, budget = _release_inputs()
    r1 = release_pair(ks, ctx, budget, seed=11)
    r2 = release_pair(ks, ctx, budget, seed=11)
    r3 = release_pair(ks, ctx, budget, seed=12)
    assert np.array_equal(r1.gram_noisy, r2.gram_noisy)
    assert np.array_equal(r1.crossprod_noisy, r2.crossprod_noisy)
    assert not np.array_equal(r1.crossprod_noisy, r3.crossprod_noisy)


def test_release_pair_requires_full_budget():
    ks, ctx, _ = _release_inputs()
    partial = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05)
    with pytest.raises(BudgetInvalid):
        release_pair(ks, ctx, partial, seed=1)


def test_release_estimate_zero_noise_matches_ols(zero_draws):
    ks, ctx, budget = _release_inputs()
    rel = release_estimate(ks, ctx, budget, seed=5)
    direct = np.linalg.solve(ks.gram_g, ks.crossprod)
    assert np.array_equal(rel.estimate_noisy, direct)


def test_release_estimate_scales_and_ridge():
    ks, ctx, budget = _release_inputs()
    rel = release_estimate(ks, ctx, budget, ridge_omega2=0.5, seed=5)
    sens = estimate_sensitivity(ctx, 0.5)
    assert rel.noise_scales["kappa_sq"] == pytest.approx(
        gaussian_scale(sens, budget.eps, budget.delta_1), rel=1e-12
    )
    assert rel.total_privacy() == (pytest.approx(budget.eps),
                                   pytest.approx(budget.delta_1 + budget.delta_2))
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
        "zeta", "bounds", "oracle", "spectrum", "frobenius_sigma_raw"
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
        calibrate(huge, budget, "1")
    with pytest.raises(PrivacyPreconditionFailed, match="kappa_sq=inf"):
        release_estimate(ks, huge, budget, seed=1)
    assert gaussian_scale(1e300, 0.5, 0.1) == math.inf


def test_releases_carry_the_calibration_record():
    ks, ctx, budget = _release_inputs()
    assert release_pair(ks, ctx, budget, seed=3).noise_scales == calibrate(ctx, budget, "1")
    rel = release_estimate(ks, ctx, budget, ridge_omega2=0.5, seed=5)
    assert rel.noise_scales == calibrate(ctx, budget, "2", 0.5)
    assert list(rel.noise_scales) == [
        "kappa_sq", "estimate_sensitivity", "ridge_omega2", "eps_total", "delta_total"
    ]
    with pytest.raises(ValueError):
        calibrate(ctx, budget, "none")


def test_gram_noise_scales_need_their_knobs():
    _, ctx, budget = _release_inputs()
    theta1, kappa1 = gram_noise_scales(ctx, budget)
    record = calibrate(ctx, budget, "1")
    assert (theta1, kappa1) == (record["theta1_scale"], record["kappa1_sq"])
    only_eps1 = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05, eps_1=0.2, eps_2=0.2)
    assert gram_noise_scales(ctx, only_eps1) == (theta1, None)
    bare = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05)
    assert gram_noise_scales(ctx, bare) == (None, None)


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
    # finite statistics or refuses the calibration, never a numerical failure
    n = n_factor * p
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * 10.0 ** np.asarray(log_scales[:p])
    ds = Dataset.from_arrays(x, x[:, 0] + rng.standard_normal(n))
    c_min = float(ds.col_norms.min())
    budget = PrivacyBudget(eps=0.5, delta_1=0.05, delta_2=0.5, eps_1=0.3, eps_2=0.3, delta=0.05)
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)

    def run(row_bound):
        return run_knockoff_filter(
            ds, q=0.2, method=method, budget=budget, oracle=oracle,
            row_bound_override=row_bound, seed=seed,
        )

    with pytest.raises(BoundViolation):
        run(c_min)
    b = c_min * (1.0 - 10.0 ** -k)
    if b >= c_min:  # 1 - 10^-16 rounded B up to C_min, checked above
        return
    try:
        result = run(b)
    except PrivacyPreconditionFailed:
        return
    assert np.all(np.isfinite(result.report.w.w))
