"""Acceptance suite: one test per formal criterion, printed pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the end-to-end Monte Carlo reproduction (criterion 2) takes about 70
seconds on two cores.  Every test here is marked ``slow``, so
``pytest -m "not slow"`` is the fast loop.
"""

import math

import numpy as np
import pytest
from scipy.stats import binomtest

from dpknockoff import (
    Dataset,
    ModelOracle,
    PrivacyBudget,
    SimConfig,
    run_knockoff_filter,
    run_sweep,
    write_report,
)
from dpknockoff.design import NormBounds, compute_bounds
from dpknockoff.knockoffs import (
    GramSpectrum,
    closed_form_gram_eigenvalues,
    gram_spectrum,
    raw_gram_frobenius,
)
from dpknockoff.privacy import (
    STRICTNESS_BUMP,
    build_sensitivity_context,
    gaussian_scale,
    laplace_scale,
    release_estimate,
    release_pair,
    sample_gaussian_vector,
    sample_laplace_vector,
)
from dpknockoff.selection import compute_statistics, estimate_coefficients
from reference import SwapSet, build_knockoffs, choose_s, normalize_columns, swap_columns_test

pytestmark = pytest.mark.slow


def _criterion(num, ok, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _random_normalized(n, p, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(Dataset.from_arrays(rng.standard_normal((n, p)), np.zeros(n)))


# ---------------------------------------------------------------------------
# 1. Non-private FDR control at desk scale
# ---------------------------------------------------------------------------


def test_criterion_01_nonprivate_fdr_control():
    cfg = SimConfig(
        n_grid=(2000,), p=30, k=10, amplitude=3.5, sigma2=1.0, q=0.2,
        trials=500, method="none", stat="csm", base_seed=20260808, threads=2,
    )
    row = run_sweep(cfg)[0]
    bound = 0.2 + 2.0 * row.fdr_se
    _criterion(
        1, row.fdr_hat <= bound,
        f"non-private fdr_hat={row.fdr_hat:.4f} <= 0.2 + 2*se={bound:.4f} "
        f"(power={row.power_hat:.3f}, 500 trials)",
    )


# ---------------------------------------------------------------------------
# 2. Desk-scale reproduction of the private FDR/power experiment
# ---------------------------------------------------------------------------


def test_criterion_02_private_fdr_and_power_sweep():
    common = dict(
        n_grid=(1000, 10000, 100000), p=50, k=15, amplitude=4.5, sigma2=1.0,
        q=0.2, trials=250, stat="csm", delta_rule="two_p_over_n",
        base_seed=4202, threads=2,
    )
    report1 = run_sweep(SimConfig(method="1", eps=0.1, eps_1=0.05, eps_2=0.05, **common))
    report2 = run_sweep(SimConfig(method="2", eps=0.2, **common))

    details = []
    ok = True
    for report, name in ((report1, "method 1"), (report2, "method 2")):
        for row in report:
            bound = 0.2 + 3.0 * row.fdr_se
            ok = ok and row.fdr_hat <= bound and row.failures == 0
            details.append(
                f"{name} n={row.n}: fdr={row.fdr_hat:.4f} (bound {bound:.4f}) "
                f"power={row.power_hat:.3f}"
            )
    power1 = {row.n: row.power_hat for row in report1}
    power2 = {row.n: row.power_hat for row in report2}
    superior = power2[100000] >= power1[100000]
    ok = ok and superior
    details.append(
        f"power at n=1e5: method2={power2[100000]:.3f} >= method1={power1[100000]:.3f}"
    )
    _criterion(2, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Knockoff Gram identity on random designs
# ---------------------------------------------------------------------------


def test_criterion_03_gram_identity():
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(2, 31))
        n = int(rng.integers(2 * p, 10 * p + 1))
        nd = _random_normalized(n, p, 5000 + trial)
        spectrum = gram_spectrum(nd.source)
        ad = build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum)
        aug = ad.augmented_matrix()
        off = spectrum.sigma_prime - spectrum.lambda_min * np.eye(p)
        target = np.block([[spectrum.sigma_prime, off], [off, spectrum.sigma_prime]])
        worst = max(worst, float(np.abs(aug.T @ aug - target).max()))
    _criterion(3, worst <= 1e-8, f"gram identity max error {worst:.2e} over 100 designs")


# ---------------------------------------------------------------------------
# 4. Closed-form extreme eigenvalues of the augmented Gram
# ---------------------------------------------------------------------------


def test_criterion_04_closed_form_eigenvalues():
    rng = np.random.default_rng(44)
    worst_match = 0.0
    worst_zero = 0.0
    classic_checked = 0
    for trial in range(50):
        p = int(rng.integers(2, 21))
        n = int(rng.integers(2 * p, 4 * p + 1))
        nd = _random_normalized(n, p, 7000 + trial)
        spectrum = gram_spectrum(nd.source)

        s = choose_s(spectrum, "private_recommended")
        ad = build_knockoffs(nd, s, spectrum=spectrum)
        evals = np.linalg.eigvalsh(ad.gram_g)
        gmax, gmin = closed_form_gram_eigenvalues(spectrum)
        worst_match = max(worst_match, abs(evals[-1] - gmax), abs(evals[0] - gmin))

        s_classic = choose_s(spectrum, "classic")
        if s_classic == 2.0 * spectrum.lambda_min and s_classic <= 1.0:
            classic_checked += 1
            ad_c = build_knockoffs(nd, s_classic, spectrum=spectrum)
            worst_zero = max(worst_zero, abs(float(np.linalg.eigvalsh(ad_c.gram_g)[0])))
    ok = worst_match <= 1e-8 and worst_zero <= 1e-8 and classic_checked >= 25
    _criterion(
        4, ok,
        f"eigenvalue match error {worst_match:.2e}; classic-s min eigenvalue "
        f"|lambda_min(G)| {worst_zero:.2e} over {classic_checked} designs",
    )


# ---------------------------------------------------------------------------
# 5. Antisymmetry under swaps, with and without frozen noise
# ---------------------------------------------------------------------------


def _swap_released_pair(gram, cross, idx, p):
    perm = np.arange(2 * p)
    perm[idx] = np.asarray(idx) + p
    perm[np.asarray(idx) + p] = idx
    return gram[np.ix_(perm, perm)], cross[perm]


def test_criterion_05_antisymmetry(monkeypatch):
    monkeypatch.setattr("dpknockoff.selection.LASSO_TOL", 1e-14)  # an exact swap check
    rng = np.random.default_rng(55)
    n, p, k = 240, 8, 3
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = 2.5
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    nd = normalize_columns(ds)
    spectrum = gram_spectrum(ds)
    ad = build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum)
    bounds = compute_bounds(ds)
    oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.4, delta_1=0.1, delta_2=0.1,
                           eps_1=0.3, eps_2=0.3, delta=0.1)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, raw_gram_frobenius(ds), budget)
    swap_sets = [[2], list(range(p))]
    worst = 0.0

    def check(w_base, w_swapped, idx):
        nonlocal worst
        flip = np.ones(p)
        flip[idx] = -1.0
        worst = max(
            worst,
            float(np.abs(w_swapped - flip * w_base).max()),
            float(np.abs(np.abs(w_swapped) - np.abs(w_base)).max()),
        )

    sources = {
        "ols": {},
        "lasso": {"lam": 0.1},
    }
    for idx in swap_sets:
        swapped = swap_columns_test(ad, SwapSet(frozenset(idx)))
        for kind in ("lcd", "csm"):
            for source in sources.values():
                est = estimate_coefficients(ad.gram_g, ad.crossprod(y), **source)
                est_sw = estimate_coefficients(swapped.gram_g, swapped.crossprod(y), **source)
                check(compute_statistics(est, kind).w, compute_statistics(est_sw, kind).w, idx)

    # private releases with the noise realization held fixed across the swap
    rel1 = release_pair(ad.summary(y), ctx, seed=505)
    rel2 = release_estimate(ad.summary(y), ctx, seed=506)
    for idx in swap_sets:
        g_sw, c_sw = _swap_released_pair(rel1.gram_noisy, rel1.crossprod_noisy, idx, p)
        for kind in ("lcd", "csm"):
            est = np.linalg.solve(rel1.gram_noisy, rel1.crossprod_noisy)
            est_sw = np.linalg.solve(g_sw, c_sw)
            check(compute_statistics(est, kind).w, compute_statistics(est_sw, kind).w, idx)

            perm = np.arange(2 * p)
            perm[idx] = np.asarray(idx) + p
            perm[np.asarray(idx) + p] = idx
            est2 = rel2.estimate_noisy
            check(compute_statistics(est2, kind).w, compute_statistics(est2[perm], kind).w, idx)
    _criterion(
        5, worst <= 1e-10,
        f"sign-flip/magnitude error {worst:.2e} across OLS, lasso(0.1), both private methods",
    )


# ---------------------------------------------------------------------------
# 6. Null sign symmetry
# ---------------------------------------------------------------------------


def test_criterion_06_null_sign_symmetry():
    n, p, k = 100, 20, 5
    positives = 0
    nonzero = 0
    for trial in range(2000):
        rng = np.random.default_rng((66, trial))
        x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:k] = 3.5
        y = x @ beta + rng.standard_normal(n)
        result = run_knockoff_filter(Dataset.from_arrays(x, y), q=0.2, stat="csm")
        nulls = result.report.w.w[k:]
        nulls = nulls[nulls != 0.0]
        positives += int(np.count_nonzero(nulls > 0))
        nonzero += nulls.size
    pvalue = binomtest(positives, nonzero, 0.5, alternative="two-sided").pvalue
    _criterion(
        6, pvalue >= 0.001,
        f"null signs {positives}/{nonzero} positive, binomial two-sided p={pvalue:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. Sensitivity formulas against an independent termwise oracle
# ---------------------------------------------------------------------------


def _oracle_zeta(p, sigma2, delta_2):
    return (2.0 * p * sigma2) / (1.0 - math.sqrt((2.0 / p) * math.log(2.0 / delta_2)))


def _oracle_pair(B, C, lam_min, lam_max, frob_raw, beta_norm, sigma2, delta_2, p):
    eta_sq = B ** 2 / (C ** 2 - B ** 2)
    eta = math.sqrt(eta_sq)
    first = math.sqrt(_oracle_zeta(p, sigma2, delta_2)) * (
        2.0 * math.sqrt(2.0 * lam_max - lam_min)
        + eta * math.sqrt(3.0 + 2.0 * lam_max + lam_min)
    )
    second = beta_norm * (
        math.sqrt(2.0) * (eta / B - 1.0 / C) * frob_raw
        + 2.0 * eta * B
        + (C - B / eta) * lam_min
        + eta_sq * (lam_min + 1.0) * math.sqrt(C ** 2 + B ** 2)
    )
    return first + second


def _oracle_estimate(B, C, lam_min, beta_norm, sigma2, delta_2, p):
    eta_sq = B ** 2 / (C ** 2 - B ** 2)
    denom = (1.0 - eta_sq) * lam_min - eta_sq
    return (
        2.0 * math.sqrt(_oracle_zeta(p, sigma2, delta_2)) / math.sqrt(denom)
        + (C - B / math.sqrt(eta_sq)) * beta_norm
    )


def test_criterion_07_sensitivity_oracles():
    # hand-derived p=2 instance: Sigma'=I2, raw Sigma=4I2, B=1, C=2
    bounds = NormBounds(row_bound_B=1.0, col_min_C=2.0)
    spectrum = GramSpectrum(np.eye(2), 1.0, 1.0, math.sqrt(2.0))
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.9)
    ctx = build_sensitivity_context(bounds, oracle, spectrum, 4.0 * math.sqrt(2.0), budget)
    hand_pair = _oracle_pair(1.0, 2.0, 1.0, 1.0, 4.0 * math.sqrt(2.0), 1.0, 1.0, 0.9, 2)
    hand_est = _oracle_estimate(1.0, 2.0, 1.0, 1.0, 1.0, 0.9, 2)
    ok = (
        abs(ctx.crossprod_sensitivity / hand_pair - 1.0) <= 1e-10
        and abs(ctx.estimate_sensitivity / hand_est - 1.0) <= 1e-10
        and abs(hand_pair - 24.465320306036865) <= 1e-9
        and abs(hand_est - 21.50697823897233) <= 1e-9
    )

    rng = np.random.default_rng(77)
    worst = 0.0
    estimate_checked = 0
    for trial in range(50):
        p = int(rng.integers(2, 13))
        n = int(rng.integers(6 * p, 24 * p))
        beta_norm = float(rng.uniform(0.0, 8.0))
        sigma2 = float(rng.uniform(0.3, 3.0))
        lo = min(0.9, 2.0 * math.exp(-p / 2.0) * 1.2 + 1e-4)
        delta_2 = float(rng.uniform(lo, 0.99))
        x = np.random.default_rng(9000 + trial).standard_normal((n, p))
        ds = Dataset.from_arrays(x, np.zeros(n))
        spectrum = gram_spectrum(ds)
        bnds = compute_bounds(ds)
        mo = ModelOracle(beta_norm_bound=beta_norm, sigma2_bound=sigma2)
        bud = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=delta_2)
        ctx = build_sensitivity_context(bnds, mo, spectrum, raw_gram_frobenius(ds), bud)
        want = _oracle_pair(
            bnds.row_bound_B, bnds.col_min_C, spectrum.lambda_min, spectrum.lambda_max,
            ctx.frobenius_sigma_raw, beta_norm, sigma2, delta_2, p,
        )
        worst = max(worst, abs(ctx.crossprod_sensitivity / want - 1.0))
        if (1.0 - ctx.eta2) * spectrum.lambda_min - ctx.eta2 > 0:
            want_est = _oracle_estimate(
                bnds.row_bound_B, bnds.col_min_C, spectrum.lambda_min,
                beta_norm, sigma2, delta_2, p,
            )
            worst = max(worst, abs(ctx.estimate_sensitivity / want_est - 1.0))
            estimate_checked += 1
    ok = ok and worst <= 1e-10 and estimate_checked >= 25
    _criterion(
        7, ok,
        f"worst relative gap {worst:.2e} over 50 contexts "
        f"({estimate_checked} exercised the estimate formula); hand instances "
        f"pair={hand_pair:.4f}, estimate={hand_est:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. Mechanism calibration, sampler statistics, zero-noise passthrough
# ---------------------------------------------------------------------------


def test_criterion_08_mechanism_calibration(zero_draws):
    rng = np.random.default_rng(88)
    worst_scale = 0.0
    for _ in range(200):
        sens = float(rng.uniform(0.0, 50.0))
        eps = float(rng.uniform(0.01, 0.99))
        delta = float(rng.uniform(0.001, 0.5))
        closed = 2.0 * math.log(1.25 / delta) * (sens / eps) ** 2 * (1.0 + STRICTNESS_BUMP)
        got = gaussian_scale(sens, eps, delta)
        gap = abs(got - closed) / max(closed, 1e-300)
        worst_scale = max(worst_scale, gap)
        lap = laplace_scale(sens, eps)
        worst_scale = max(worst_scale, abs(lap - sens / eps) / max(sens / eps, 1e-300))

    g = sample_gaussian_vector(1_000_000, 4.0, seed=801)
    gauss_err = abs(g.var() / 4.0 - 1.0)
    lap = sample_laplace_vector(1_000_000, 2.5, seed=802)
    lap_err = abs(lap.var() / (2.0 * 2.5 ** 2) - 1.0)

    # zero-noise passthrough against the fully non-private pipeline; zero_draws
    # zeroes the package's samplers only, not the ones this module imported
    rng2 = np.random.default_rng(89)
    n, p = 300, 12
    x = rng2.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:4] = 2.0
    y = x @ beta + rng2.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    oracle = ModelOracle(beta_norm_bound=4.0, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.3, delta_1=0.05, delta_2=0.05,
                           eps_1=0.2, eps_2=0.2, delta=0.05)
    base = run_knockoff_filter(ds, q=0.2, stat="lcd", method="none")
    pass1 = run_knockoff_filter(ds, q=0.2, stat="lcd", method="1", budget=budget,
                                oracle=oracle, seed=7)
    pass2 = run_knockoff_filter(ds, q=0.2, stat="lcd", method="2", budget=budget,
                                oracle=oracle, seed=7)
    gap1 = float(np.abs(pass1.report.w.w - base.report.w.w).max())
    gap2 = float(np.abs(pass2.report.w.w - base.report.w.w).max())

    ok = worst_scale <= 1e-12 and gauss_err <= 0.05 and lap_err <= 0.05 and max(gap1, gap2) <= 1e-12
    _criterion(
        8, ok,
        f"calibration gap {worst_scale:.2e}; sampler variance errors "
        f"{gauss_err:.3%}/{lap_err:.3%}; zero-noise passthrough gaps "
        f"{gap1:.2e}/{gap2:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. Lasso solver against a brute-force grid
# ---------------------------------------------------------------------------


def test_criterion_09_lasso_grid():
    def objective(a, c, lam, b):
        return float(b @ a @ b - 2.0 * c @ b + lam * np.sum(np.abs(b)))

    rng = np.random.default_rng(99)
    worst = 0.0
    soft_ok = True
    for _ in range(10):
        c = rng.uniform(-3.0, 3.0, size=2)
        lam = float(rng.uniform(0.05, 2.0))
        a = np.eye(2)
        est = estimate_coefficients(a, c, lam=lam)
        # closed-form soft threshold at lam/2 on an orthogonal design
        closed = np.sign(c) * np.maximum(np.abs(c) - lam / 2.0, 0.0)
        soft_ok = soft_ok and np.max(np.abs(est - closed)) <= 1e-10
        grid = np.linspace(-4.0, 4.0, 2001)
        b0, b1 = np.meshgrid(grid, grid, indexing="ij")
        obj = b0 ** 2 + b1 ** 2 - 2.0 * (c[0] * b0 + c[1] * b1) + lam * (np.abs(b0) + np.abs(b1))
        worst = max(worst, objective(a, c, lam, est) - float(obj.min()))
    ok = worst <= 1e-4 and soft_ok
    _criterion(
        9, ok,
        f"objective gap to grid minimum {worst:.2e}; soft-threshold closed form matched",
    )


# ---------------------------------------------------------------------------
# 10. Byte-identical sweep output across thread counts
# ---------------------------------------------------------------------------


def test_criterion_10_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 4, 8):
        cfg = SimConfig(
            n_grid=(400, 600), p=12, k=4, amplitude=2.0, sigma2=1.0, q=0.2,
            trials=20, method="2", stat="csm", eps=0.3,
            base_seed=1010, threads=threads,
        )
        out = tmp_path / f"threads{threads}.csv"
        write_report(run_sweep(cfg), out)
        outputs[threads] = out.read_bytes()
    ok = outputs[1] == outputs[4] == outputs[8]
    _criterion(10, ok, "sweep CSV byte-identical across thread counts 1, 4, 8")
