import dataclasses
import math

import numpy as np
import pytest

from dpknockoff import (
    BudgetInvalid,
    Dataset,
    InvalidDesign,
    MissingTruth,
    ModelOracle,
    NonConvergence,
    PrivacyBudget,
    PreconditionViolated,
    SingularSystem,
    run_knockoff_filter,
)
from dpknockoff import pipeline
from dpknockoff.knockoffs import GramSpectrum, gram_spectrum
from dpknockoff.selection import (
    StatisticVector,
    _lasso_gram_cd,
    compute_statistics,
    estimate_coefficients,
    evaluate_selection,
    knockoff_threshold,
)
from reference import SwapSet, build_knockoffs, normalize_columns, swap_columns_test


def _gram_objective(a, c, lam, b):
    return float(b @ a @ b - 2.0 * c @ b + lam * np.sum(np.abs(b)))


# ---------------------------------------------------------------------------
# Coefficient estimation
# ---------------------------------------------------------------------------


def test_ols_diagonal_solve():
    est = estimate_coefficients(2.0 * np.eye(2), np.array([2.0, 4.0]))
    assert np.allclose(est, [1.0, 2.0])


def test_ols_singular_system():
    with pytest.raises(SingularSystem):
        estimate_coefficients(np.zeros((2, 2)), np.array([1.0, 1.0]))


def test_ridge_shifts_diagonal():
    est = estimate_coefficients(np.eye(2), np.array([2.0, 4.0]), ridge_omega2=1.0)
    assert np.allclose(est, [1.0, 2.0])


def test_lasso_orthogonal_soft_threshold():
    est = estimate_coefficients(np.eye(2), np.array([3.0, -0.2]), lam=1.0)
    assert np.allclose(est, [2.5, 0.0])


def test_lasso_zero_penalty_matches_ols():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 6 * np.eye(6)  # well conditioned
        c = rng.standard_normal(6)
        ols = estimate_coefficients(a, c)
        lasso = _lasso_gram_cd(a, c, 0.0)  # the solver itself; lam = 0 routes to OLS
        assert np.max(np.abs(ols - lasso)) <= 1e-6


def _grid_minimum(a, c, lam, lo=-4.0, hi=4.0, points=1601):
    u = np.linspace(lo, hi, points)
    b0, b1 = np.meshgrid(u, u, indexing="ij")
    obj = (
        a[0, 0] * b0 ** 2 + 2.0 * a[0, 1] * b0 * b1 + a[1, 1] * b1 ** 2
        - 2.0 * (c[0] * b0 + c[1] * b1)
        + lam * (np.abs(b0) + np.abs(b1))
    )
    return float(obj.min())


def test_lasso_matches_bruteforce_grid():
    # 2-coefficient instances: orthogonal design (separable, closed form)
    # and one correlated Gram, against a dense grid minimizer
    cases = [
        (np.eye(2), np.array([3.0, -0.2]), 1.0),
        (np.eye(2), np.array([0.3, 0.4]), 0.5),
        (np.array([[1.0, 0.3], [0.3, 1.0]]), np.array([1.5, -0.7]), 0.4),
    ]
    for a, c, lam in cases:
        est = estimate_coefficients(a, c, lam=lam)
        best = _grid_minimum(a, c, lam)
        assert _gram_objective(a, c, lam, est) <= best + 1e-4


def test_lasso_nonconvergence_on_divergent_objective():
    # indefinite coupling drives the cyclic updates to +/-inf
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NonConvergence):
        estimate_coefficients(a, np.array([1.0, -1.0]), lam=0.1)


def test_lasso_sweep_cap_is_nonconvergence(monkeypatch):
    # a coupled system moves both coordinates in its first sweep, so one sweep cannot stop
    monkeypatch.setattr("dpknockoff.selection.LASSO_MAX_SWEEPS", 1)
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(NonConvergence, match="^coordinate descent did not reach tolerance "
                                             "1e-08 within 1 sweeps$"):
        estimate_coefficients(a, np.array([1.0, 1.0]), lam=0.1)


def test_estimate_coefficients_validation():
    a, c = np.eye(2), np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        estimate_coefficients(a, c, lam=-1.0)
    with pytest.raises(ValueError):
        estimate_coefficients(a, c, ridge_omega2=-1.0)
    # a nan knob would fall through to OLS, an infinite one zero the estimate
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^lasso penalty must be finite$"):
            estimate_coefficients(a, c, lam=bad)
        with pytest.raises(ValueError, match="^ridge term must be finite$"):
            estimate_coefficients(a, c, ridge_omega2=bad)
    # the lasso has no ridge term, so the pair is refused rather than half-ignored
    with pytest.raises(PreconditionViolated):
        estimate_coefficients(a, c, lam=0.1, ridge_omega2=0.5)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def test_statistics_hand_example():
    est = np.array([2.0, -0.5])
    assert compute_statistics(est, "lcd").w[0] == pytest.approx(1.5)
    assert compute_statistics(est, "csm").w[0] == pytest.approx(2.0)


def test_statistics_tie_gives_zero():
    est = np.array([1.5, 0.2, -1.5, 0.2])
    assert compute_statistics(est, "lcd").w[0] == 0.0
    assert compute_statistics(est, "csm").w[0] == 0.0


def test_statistics_swap_flips_sign():
    rng = np.random.default_rng(1)
    est = rng.standard_normal(8)
    p = 4
    swapped = est.copy()
    swapped[[0, 0 + p]] = swapped[[0 + p, 0]]
    for kind in ("lcd", "csm"):
        w = compute_statistics(est, kind).w
        w_sw = compute_statistics(swapped, kind).w
        assert w_sw[0] == -w[0]
        assert np.array_equal(w_sw[1:], w[1:])


def test_statistics_rejects_odd_length():
    with pytest.raises(ValueError):
        compute_statistics(np.ones(5), "lcd")
    with pytest.raises(ValueError):
        compute_statistics(np.ones(4), "nope")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["lcd", "csm"])
def test_statistics_reject_non_finite_estimate(bad, kind):
    est = np.array([1.0, bad, 0.5, 0.2])
    with pytest.raises(SingularSystem, match="entry 1"):
        compute_statistics(est, kind)


def test_filter_raises_on_non_finite_estimate(monkeypatch):
    # a NaN estimate must not pass through the threshold as an empty selection
    ds, _ = _built_design()
    monkeypatch.setattr(pipeline, "estimate_coefficients", lambda *a, **k: np.full(2 * ds.p, np.nan))
    with pytest.raises(SingularSystem):
        run_knockoff_filter(ds, q=0.2)


@pytest.mark.filterwarnings("error")
def test_filter_blames_the_response_when_its_products_overflow():
    # X^T y overflows; the error must name the response, not the estimate
    rng = np.random.default_rng(15)
    x = rng.standard_normal((5000, 20))
    ds = Dataset.from_arrays(x, (x[:, 0] + rng.standard_normal(5000)) * 1e306)
    with pytest.raises(InvalidDesign, match="rescale the response y"):
        run_knockoff_filter(ds, q=0.2)


# ---------------------------------------------------------------------------
# Threshold
# ---------------------------------------------------------------------------


def _stat_vec(values):
    w = np.asarray(values, dtype=float)
    return StatisticVector(w=w, statistic_kind="lcd", estimate=np.zeros(2 * len(w)))


def test_threshold_hand_example():
    report = knockoff_threshold(_stat_vec([3.0, 2.0, -1.0, 4.0, -2.0, 1.0]), q=0.5)
    assert report.threshold_t == 3.0
    assert report.selected == frozenset({0, 3})


def test_threshold_no_candidate_qualifies():
    report = knockoff_threshold(_stat_vec([3.0, 2.0, -1.0, 4.0, -2.0, 1.0]), q=0.25)
    assert report.threshold_t == np.inf
    assert report.selected == frozenset()


def test_threshold_all_negative():
    report = knockoff_threshold(_stat_vec([-1.0, -2.0, -0.5]), q=0.5)
    assert report.selected == frozenset()


def test_threshold_all_zero_statistics():
    report = knockoff_threshold(_stat_vec([0.0, 0.0]), q=0.5)
    assert report.threshold_t == np.inf
    assert report.selected == frozenset()


def test_threshold_q_validation():
    with pytest.raises(PreconditionViolated):
        knockoff_threshold(_stat_vec([1.0]), q=0.0)


def _loop_threshold(w, q):
    """The per-candidate scan the vectorized threshold replaced, kept as reference."""
    wv = np.asarray(w, dtype=float)
    candidates = np.unique(np.abs(wv))
    for t in candidates[candidates > 0.0]:
        n_neg = int(np.count_nonzero(wv <= -t))
        n_pos = int(np.count_nonzero(wv >= t))
        if (1 + n_neg) / max(n_pos, 1) <= q:
            return float(t)
    return np.inf


@pytest.mark.parametrize("kind", ["ties_and_zeros", "all_negative", "continuous"])
def test_threshold_matches_loop_reference(kind):
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = int(rng.integers(1, 40))
        if kind == "ties_and_zeros":
            values = rng.integers(-3, 6, size=p).astype(float)
        elif kind == "all_negative":
            values = -np.abs(rng.integers(0, 4, size=p)).astype(float)
        else:
            values = rng.standard_normal(p) + 0.5
        q = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.9]))
        report = knockoff_threshold(_stat_vec(values), q)
        expected = _loop_threshold(values, q)
        assert report.threshold_t == expected
        assert report.selected == frozenset(int(j) for j in np.flatnonzero(values >= expected))


def test_threshold_monotone_in_q():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = _stat_vec(rng.standard_normal(12))
        previous = frozenset()
        for q in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
            selected = knockoff_threshold(w, q).selected
            assert previous <= selected
            previous = selected


# ---------------------------------------------------------------------------
# Swaps and evaluation
# ---------------------------------------------------------------------------


def _built_design(n=80, p=6, seed=3, k=2, amp=3.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = amp
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    nd = normalize_columns(ds)
    # the reference chain throughout: S' = X'^T X', as swap_columns_test recomputes it
    spectrum = GramSpectrum.from_gram(nd.x_prime.T @ nd.x_prime)
    return ds, build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum)


def test_swap_empty_is_identity():
    _, ad = _built_design()
    same = swap_columns_test(ad, SwapSet(frozenset()))
    assert np.array_equal(same.design.x_prime, ad.design.x_prime)
    assert np.array_equal(same.knockoff, ad.knockoff)
    assert np.array_equal(same.gram_g, ad.gram_g)


def test_swap_is_involution():
    _, ad = _built_design()
    full = SwapSet(frozenset(range(ad.p)))
    twice = swap_columns_test(swap_columns_test(ad, full), full)
    assert np.array_equal(twice.design.x_prime, ad.design.x_prime)
    assert np.array_equal(twice.knockoff, ad.knockoff)
    assert np.array_equal(twice.gram_g, ad.gram_g)


def test_swap_out_of_range():
    _, ad = _built_design()
    with pytest.raises(ValueError):
        swap_columns_test(ad, SwapSet(frozenset({ad.p})))


@pytest.mark.parametrize("kind", ["lcd", "csm"])
def test_single_swap_flips_one_statistic(kind):
    ds, ad = _built_design()
    j = 1
    swapped = swap_columns_test(ad, SwapSet(frozenset({j})))
    est = estimate_coefficients(ad.gram_g, ad.crossprod(ds.y))
    est_sw = estimate_coefficients(swapped.gram_g, swapped.crossprod(ds.y))
    w = compute_statistics(est, kind).w
    w_sw = compute_statistics(est_sw, kind).w
    flip = np.ones(ad.p)
    flip[j] = -1.0
    assert np.max(np.abs(w_sw - flip * w)) <= 1e-10
    assert np.max(np.abs(np.abs(w_sw) - np.abs(w))) <= 1e-10


def test_evaluate_selection_counts():
    w = _stat_vec([1.0, 1.0, -1.0, -1.0])
    report = knockoff_threshold(w, q=0.9)
    # force a specific selected set through a fresh report object
    report = type(report)(selected=frozenset({0, 1}), threshold_t=1.0, q=0.5, w=w)
    truth = ModelOracle(beta_norm_bound=5.0, sigma2_bound=1.0,
                        true_beta=np.array([1.0, 0.0, 0.0, 1.0]))  # support {0, 3}
    fdp, power = evaluate_selection(report, truth)
    assert fdp == pytest.approx(0.5)
    assert power == pytest.approx(0.5)


def test_evaluate_selection_empty_and_perfect():
    w = _stat_vec([1.0, -1.0])
    truth = ModelOracle(beta_norm_bound=5.0, sigma2_bound=1.0, true_beta=np.array([1.0, 0.0]))
    empty = type(knockoff_threshold(w, 0.5))(
        selected=frozenset(), threshold_t=np.inf, q=0.5, w=w
    )
    assert evaluate_selection(empty, truth) == (0.0, 0.0)
    perfect = type(empty)(selected=frozenset({0}), threshold_t=1.0, q=0.5, w=w)
    assert evaluate_selection(perfect, truth) == (0.0, 1.0)


def test_evaluate_selection_requires_truth():
    w = _stat_vec([1.0, -1.0])
    report = knockoff_threshold(w, 0.5)
    with pytest.raises(MissingTruth):
        evaluate_selection(report, ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0))


def test_evaluate_selection_always_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = int(rng.integers(1, 10))
        w = _stat_vec(rng.standard_normal(p))
        report = knockoff_threshold(w, float(rng.uniform(0.05, 0.95)))
        beta = np.zeros(p)
        beta[rng.choice(p, size=rng.integers(0, p + 1), replace=False)] = 0.1
        truth = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0, true_beta=beta)
        fdp, power = evaluate_selection(report, truth)
        assert 0.0 <= fdp <= 1.0 and 0.0 <= power <= 1.0


def test_pipeline_rejects_unknown_method():
    rng = np.random.default_rng(13)
    ds = Dataset.from_arrays(rng.standard_normal((40, 4)), rng.standard_normal(40))
    with pytest.raises(ValueError):
        run_knockoff_filter(ds, q=0.2, method="3")


def _private_filter_inputs():
    rng = np.random.default_rng(14)
    n, p = 400, 8
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = 3.0
    ds = Dataset.from_arrays(x, x @ beta + rng.standard_normal(n))
    oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.4, delta_1=0.05, delta_2=0.05, eps_1=0.2, eps_2=0.2, delta=0.05)
    return ds, oracle, budget


@pytest.mark.parametrize("method", ["1", "2"])
@pytest.mark.parametrize("missing", ["budget", "oracle"])
def test_pipeline_private_methods_need_a_budget_and_an_oracle(monkeypatch, method, missing):
    ds, oracle, budget = _private_filter_inputs()
    knobs = {"budget": budget, "oracle": oracle, missing: None}
    # refused before the spectrum, the first work on the design
    monkeypatch.setattr(pipeline, "gram_spectrum", lambda *a: pytest.fail("spectrum computed"))
    message = "^private methods need a privacy budget and a model oracle$"
    with pytest.raises(BudgetInvalid, match=message):
        run_knockoff_filter(ds, q=0.2, method=method, seed=1, **knobs)


@pytest.mark.parametrize("method", ["none", "1", "2"])
def test_pipeline_refuses_an_unknown_statistic_before_the_data(monkeypatch, method):
    ds, oracle, budget = _private_filter_inputs()
    budget = None if method == "none" else budget
    monkeypatch.setattr(pipeline, "gram_spectrum", lambda *a: pytest.fail("spectrum computed"))
    message = r"^unknown statistic kind 'bogus'; expected one of \('lcd', 'csm'\)$"
    with pytest.raises(ValueError, match=message):
        run_knockoff_filter(ds, q=0.2, stat="bogus", method=method, budget=budget, oracle=oracle)
    with pytest.raises(ValueError, match=message):  # the message compute_statistics gives
        compute_statistics(np.zeros(4), "bogus")


@pytest.mark.parametrize("knob", ["budget", "row_bound_override"])
def test_pipeline_method_none_refuses_a_budget_and_a_row_bound(monkeypatch, knob):
    # method none releases nothing: a budget would be silently unspent
    ds, oracle, budget = _private_filter_inputs()
    monkeypatch.setattr(pipeline, "gram_spectrum", lambda *a: pytest.fail("spectrum computed"))
    value = {"budget": budget, "row_bound_override": 100.0}[knob]
    message = f"^{knob} is ignored under method none; choose method 1 or 2 for a private run$"
    with pytest.raises(PreconditionViolated, match=message):
        run_knockoff_filter(ds, q=0.2, oracle=oracle, seed=1, **{knob: value})


@pytest.mark.parametrize("method", ["none", "1", "2"])
def test_select_makes_one_release_per_call_of_one_summary(method):
    # one (summary, calibration) pair serves several releases, each the filter's at its seed
    ds, oracle, budget = _private_filter_inputs()
    budget = None if method == "none" else budget
    spectrum = gram_spectrum(ds)
    ks = pipeline.knockoff_summary(ds, spectrum)
    ctx = None if method == "none" else pipeline._calibration(ds, spectrum, oracle, budget)
    for seed in (1, 2, 3):
        got = pipeline._select(ks, ctx, method, 0.2, "lcd", 0.0, 0.0, seed)
        want = run_knockoff_filter(ds, q=0.2, method=method, budget=budget, oracle=oracle,
                                   seed=seed)
        assert got.report.w.w.tobytes() == want.report.w.w.tobytes()
        assert (got.report.threshold_t, got.report.selected) == (
            want.report.threshold_t, want.report.selected)
        if method == "none":
            assert got.release is want.release is None
            continue
        for field in dataclasses.fields(want.release):
            a, b = getattr(got.release, field.name), getattr(want.release, field.name)
            assert a is b is None or np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@pytest.mark.parametrize("method", ["none", "1", "2"])
def test_pipeline_uses_s_equal_lambda_min(monkeypatch, method):
    # the calibration's gamma = 2*lambda_max - lambda_min assumes s = lambda_min(S')
    ds, oracle, budget = _private_filter_inputs()
    built = []
    real = pipeline.knockoff_summary
    monkeypatch.setattr(pipeline, "knockoff_summary", lambda *a, **k: built.append(real(*a, **k)) or built[-1])
    budget = None if method == "none" else budget
    run_knockoff_filter(ds, q=0.2, method=method, budget=budget, oracle=oracle, seed=1)
    spectrum, p = gram_spectrum(ds), ds.p
    off = spectrum.sigma_prime - spectrum.lambda_min * np.eye(p)
    (ks,) = built
    assert np.array_equal(ks.gram_g[:p, p:], off)
    assert np.array_equal(ks.gram_g[p:, :p], off)


@pytest.mark.parametrize("method", ["none", "1"])
def test_pipeline_rejects_lasso_with_ridge(method):
    ds, oracle, budget = _private_filter_inputs()
    budget = None if method == "none" else budget
    with pytest.raises(PreconditionViolated, match="ridge"):
        run_knockoff_filter(
            ds, q=0.2, method=method, budget=budget, oracle=oracle, lam=0.5, ridge_omega2=0.5
        )


# method 2 refuses any lasso penalty (test_pipeline_rejects_lasso_under_method_2)
@pytest.mark.parametrize("method, knob", [
    ("none", "lam"), ("1", "lam"), ("none", "ridge_omega2"), ("1", "ridge_omega2"),
    ("2", "ridge_omega2"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pipeline_refuses_a_non_finite_penalty(method, knob, bad):
    ds, oracle, budget = _private_filter_inputs()
    budget = None if method == "none" else budget
    with pytest.raises(ValueError, match="must be finite$"):
        run_knockoff_filter(ds, q=0.2, method=method, budget=budget, oracle=oracle,
                            seed=1, **{knob: bad})


def test_pipeline_rejects_lasso_under_method_2():
    # method 2 releases the ridge/OLS vector; a penalty would be silently dropped
    ds, oracle, budget = _private_filter_inputs()
    with pytest.raises(PreconditionViolated, match="method 2"):
        run_knockoff_filter(ds, q=0.2, method="2", budget=budget, oracle=oracle, lam=0.5)


def test_full_filter_selects_strong_signals():
    rng = np.random.default_rng(9)
    n, p, k = 600, 20, 5
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = 6.0
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    result = run_knockoff_filter(ds, q=0.2, stat="csm")
    assert frozenset(range(k)) <= result.report.selected or len(result.report.selected) >= k - 1


def test_full_filter_lasso_path():
    rng = np.random.default_rng(10)
    n, p, k = 600, 20, 5
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = 6.0
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.from_arrays(x, y)
    result = run_knockoff_filter(ds, q=0.2, stat="lcd", lam=0.5)
    # penalty shrinks knockoff coefficients toward zero; signals survive
    assert len(result.report.selected) >= k - 1
    assert np.count_nonzero(result.report.w.estimate) < 2 * p
