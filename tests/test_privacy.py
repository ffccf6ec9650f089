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
    rel = release_pair(ks, ctx, seed=3)
    assert np.array_equal(rel.gram_noisy, ks.gram_g)
    assert np.array_equal(rel.crossprod_noisy, ks.crossprod)
    # zero draws leave the record as calibrated: it reports what was spent
    assert rel.noise_scales == ctx.noise_scales("1")


def test_release_pair_recorded_scales():
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, seed=3)
    lam_sens, frob_sens = ctx.lambda_min_sensitivity, ctx.gram_frobenius_sensitivity
    assert rel.noise_scales["theta1_scale"] == pytest.approx(lam_sens / budget.eps_1, rel=1e-12)
    assert rel.noise_scales["kappa1_sq"] == pytest.approx(
        gaussian_scale(frob_sens, budget.eps_2, budget.delta), rel=1e-12
    )
    assert rel.noise_scales["kappa2_sq"] == pytest.approx(
        gaussian_scale(ctx.crossprod_sensitivity, budget.eps, budget.delta_1), rel=1e-12
    )
    assert rel.total_privacy() == (
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
    rel = release_estimate(ks, dataclasses.replace(ctx, ridge_omega2=0.5), seed=5)
    sens = dataclasses.replace(ctx, ridge_omega2=0.5).estimate_sensitivity
    assert rel.noise_scales["estimate_sensitivity"] == sens
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


def test_releases_carry_the_calibration_record():
    ks, ctx, budget = _release_inputs()
    rel = release_pair(ks, ctx, seed=3)
    assert rel.noise_scales == ctx.noise_scales("1")
    assert list(rel.noise_scales) == [
        "theta1_scale", "kappa1_sq", "kappa2_sq", "lambda_min_sensitivity",
        "gram_frobenius_sensitivity", "crossprod_sensitivity", "eps_total", "delta_total",
    ]
    ridged = dataclasses.replace(ctx, ridge_omega2=0.5)
    rel = release_estimate(ks, ridged, seed=5)
    assert rel.noise_scales == ridged.noise_scales("2")
    assert list(rel.noise_scales) == [
        "kappa_sq", "estimate_sensitivity", "ridge_omega2", "eps_total", "delta_total"
    ]
    with pytest.raises(ValueError):
        ctx.noise_scales("none")


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
