import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from dpknockoff import (
    DPKnockoffError,
    Dataset,
    InvalidDesign,
    KnockoffInfeasible,
    PreconditionViolated,
)
from dpknockoff import knockoffs
from dpknockoff.design import _default_probe
from dpknockoff.knockoffs import (
    GramSpectrum,
    closed_form_gram_eigenvalues,
    gram_spectrum,
    knockoff_summary,
    raw_gram_frobenius,
)
from reference import (
    NormalizedDesign,
    _orthonormalize_tall,
    build_knockoffs,
    choose_s,
    complement_basis,
    normalize_columns,
)


def _random_design(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    return normalize_columns(Dataset.from_arrays(x, np.zeros(n)))


def _orthogonal_design(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return normalize_columns(Dataset.from_arrays(q, np.zeros(n)))


def _target_gram(sigma_prime, s):
    p = sigma_prime.shape[0]
    off = sigma_prime - s * np.eye(p)
    return np.block([[sigma_prime, off], [off, sigma_prime]])


def test_gram_spectrum_basics():
    nd = _random_design(80, 6, 0)
    spectrum = gram_spectrum(nd.source)
    assert np.max(np.abs(spectrum.sigma_prime - spectrum.sigma_prime.T)) <= 1e-10
    assert np.max(np.abs(np.diag(spectrum.sigma_prime) - 1.0)) <= 1e-10
    evals = np.linalg.eigvalsh(spectrum.sigma_prime)
    assert spectrum.lambda_min == pytest.approx(evals[0], abs=1e-8)
    assert spectrum.lambda_max == pytest.approx(evals[-1], abs=1e-8)
    assert 0 < spectrum.lambda_min <= spectrum.lambda_max


def test_choose_s_identity_gram():
    spectrum = GramSpectrum(np.eye(4), 1.0, 1.0, 2.0)
    assert choose_s(spectrum, "private_recommended") == 1.0


@pytest.mark.parametrize("lam_min,expected", [(0.3, 0.6), (0.7, 1.0)])
def test_choose_s_classic(lam_min, expected):
    spectrum = GramSpectrum(np.eye(3), lam_min, 1.5, 2.0)
    assert choose_s(spectrum, "classic") == pytest.approx(expected)


def test_choose_s_unknown_mode():
    spectrum = GramSpectrum(np.eye(3), 0.5, 1.5, 2.0)
    with pytest.raises(ValueError):
        choose_s(spectrum, "sdp")


def test_choose_s_needs_positive_lambda_min():
    spectrum = GramSpectrum(np.eye(3), 0.0, 1.5, 2.0)
    with pytest.raises(PreconditionViolated):
        choose_s(spectrum)


def test_closed_form_eigenvalues_identity():
    spectrum = GramSpectrum(np.eye(5), 1.0, 1.0, np.sqrt(5.0))
    assert closed_form_gram_eigenvalues(spectrum) == (1.0, 1.0)


def test_closed_form_eigenvalues_formula_and_explicit_match():
    spectrum = GramSpectrum(np.diag([0.5, 2.0]), 0.5, 2.0, float(np.hypot(0.5, 2.0)))
    gmax, gmin = closed_form_gram_eigenvalues(spectrum)
    assert (gmax, gmin) == (3.5, 0.5)
    evals = np.linalg.eigvalsh(_target_gram(spectrum.sigma_prime, 0.5))
    assert evals[-1] == pytest.approx(3.5, abs=1e-12)
    assert evals[0] == pytest.approx(0.5, abs=1e-12)


def test_classic_choice_zeroes_min_eigenvalue():
    # when 2*lambda_min <= 1, the classic s makes the augmented Gram singular
    nd = _random_design(60, 10, 5)
    spectrum = gram_spectrum(nd.source)
    s = choose_s(spectrum, "classic")
    assert s == pytest.approx(2.0 * spectrum.lambda_min)
    evals = np.linalg.eigvalsh(_target_gram(spectrum.sigma_prime, s))
    assert abs(evals[0]) <= 1e-8


def test_build_knockoffs_identity_gram_orthogonal_copy():
    nd = _orthogonal_design(40, 5, 1)
    spectrum = gram_spectrum(nd.source)
    ad = build_knockoffs(nd, 1.0, spectrum=spectrum)
    assert np.max(np.abs(nd.x_prime.T @ ad.knockoff)) <= 1e-9
    assert np.max(np.abs(ad.knockoff.T @ ad.knockoff - np.eye(5))) <= 1e-9


def test_build_knockoffs_s_zero_copies_design():
    nd = _random_design(50, 5, 2)
    ad = build_knockoffs(nd, 0.0)
    assert np.array_equal(ad.knockoff, nd.x_prime)


def test_build_knockoffs_gram_identity_random_designs():
    rng = np.random.default_rng(123)
    for trial in range(10):
        p = int(rng.integers(2, 31))
        n = int(rng.integers(2 * p, 10 * p + 1))
        nd = _random_design(n, p, 1000 + trial)
        spectrum = gram_spectrum(nd.source)
        ad = build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum)
        target = _target_gram(spectrum.sigma_prime, spectrum.lambda_min)
        assert np.max(np.abs(ad.gram_g - target)) <= 1e-8
        # copy invariants
        assert np.max(np.abs(ad.knockoff.T @ ad.knockoff - spectrum.sigma_prime)) <= 1e-8
        off = spectrum.sigma_prime - spectrum.lambda_min * np.eye(p)
        assert np.max(np.abs(nd.x_prime.T @ ad.knockoff - off)) <= 1e-8
        # PSD up to rounding
        assert np.linalg.eigvalsh(ad.gram_g)[0] >= -1e-8


def test_build_knockoffs_deterministic():
    nd = _random_design(70, 7, 3)
    a = build_knockoffs(nd, 0.2)
    b = build_knockoffs(nd, 0.2)
    assert np.array_equal(a.knockoff, b.knockoff)


def test_build_knockoffs_seeded_variant_is_valid():
    nd = _random_design(70, 7, 4)
    spectrum = gram_spectrum(nd.source)
    ad = build_knockoffs(nd, spectrum.lambda_min, seed=99, spectrum=spectrum)
    target = _target_gram(spectrum.sigma_prime, spectrum.lambda_min)
    assert np.max(np.abs(ad.gram_g - target)) <= 1e-8
    default = build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum)
    assert not np.array_equal(ad.knockoff, default.knockoff)


def test_build_knockoffs_needs_enough_samples():
    good = _random_design(50, 5, 6)
    # hand-build a 5x3 normalized design (Dataset itself refuses n < 2p)
    x = np.random.default_rng(6).standard_normal((5, 3))
    x /= np.linalg.norm(x, axis=0)
    nd = NormalizedDesign(x_prime=x, normalizer_d=np.ones(3), source=good.source)
    with pytest.raises(KnockoffInfeasible):
        build_knockoffs(nd, 0.1)
    # complement basis enforces the same requirement
    with pytest.raises(KnockoffInfeasible):
        complement_basis(np.ones((5, 3)))


def test_complement_basis_orthogonality():
    nd = _random_design(90, 8, 7)
    u = complement_basis(nd.x_prime)
    assert u.shape == (90, 8)
    assert np.max(np.abs(u.T @ nd.x_prime)) <= 1e-9
    assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-9


def test_raw_gram_frobenius_matches_direct_product():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 4)) * rng.uniform(0.5, 3.0, size=4)
    ds = Dataset.from_arrays(x, np.zeros(60))
    direct = float(np.linalg.norm(x.T @ x, "fro"))
    assert raw_gram_frobenius(ds) == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# Sufficient-statistic summary against the explicit copy
# ---------------------------------------------------------------------------


def _rel_gap(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _assert_summary_matches_reference(ds, spectrum):
    ks = knockoff_summary(ds, spectrum)
    nd = normalize_columns(ds)
    ref = build_knockoffs(nd, spectrum.lambda_min, spectrum=spectrum).summary(ds.y)
    assert _rel_gap(ks.gram_g, ref.gram_g) <= 1e-10
    assert _rel_gap(ks.crossprod, ref.crossprod) <= 1e-10
    return ks


def _design_and_response(x, seed):
    rng = np.random.default_rng(seed)
    y = x[:, :3].sum(axis=1) + rng.standard_normal(x.shape[0])
    ds = Dataset.from_arrays(x, y)
    return ds, gram_spectrum(ds)


@pytest.mark.parametrize("n_of_p", [lambda p: 2 * p, lambda p: 3 * p, lambda p: 1000])
def test_knockoff_summary_matches_explicit_copy(n_of_p):
    for trial, p in enumerate((3, 12, 40)):
        n = n_of_p(p)
        x = np.random.default_rng((n, p, trial)).standard_normal((n, p))
        ds, spectrum = _design_and_response(x, trial)
        _assert_summary_matches_reference(ds, spectrum)


def test_knockoff_summary_spread_column_norms():
    rng = np.random.default_rng(14)
    n, p = 120, 10
    x = rng.standard_normal((n, p)) * np.logspace(-3, 3, p)
    ds, spectrum = _design_and_response(x, 15)
    _assert_summary_matches_reference(ds, spectrum)


def test_knockoff_summary_reads_only_the_record():
    # an in-memory record and a copy without x that holds its probe products
    # as a streamed record does: the summary must not tell them apart
    ds, spectrum = _design_and_response(np.random.default_rng(16).standard_normal((300, 8)), 17)
    record = dataclasses.replace(ds, x=None, probe_sums=ds.probe_products())
    want, got = knockoff_summary(ds, spectrum), knockoff_summary(record, spectrum)
    assert got.gram_g.tobytes() == want.gram_g.tobytes()
    assert got.crossprod.tobytes() == want.crossprod.tobytes()


def test_a_refused_first_pass_is_refined_to_the_reference(monkeypatch):
    # the Gram form of R refused, the filter forms it again from Z = W - X m
    ds, spectrum = _design_and_response(np.random.default_rng(20).standard_normal((80, 6)), 20)
    rank_tol, conds, projections = knockoffs._rank_tol, [], []
    probe_products = Dataset.probe_products

    def refuse_the_first_pass(n, cond):
        conds.append(cond)
        return np.inf if len(conds) == 1 else rank_tol(n, cond)

    def spy(ds, m=None):
        projections.append(m)
        return probe_products(ds, m)

    monkeypatch.setattr(knockoffs, "_rank_tol", refuse_the_first_pass)
    monkeypatch.setattr(Dataset, "probe_products", spy)
    _assert_summary_matches_reference(ds, spectrum)
    # the filter's two passes, then the reference's one rank rule
    assert conds == [spectrum.lambda_max / spectrum.lambda_min, 1.0, 1.0]
    assert projections[0] is None and projections[1].shape == (6, 6) and len(projections) == 2


IN_SPAN = "^probe matrix lies inside the design column span$"


@pytest.mark.parametrize("rho", [0.0, 0.99])
def test_probe_in_span_is_refused_above_the_rounding_floor(rho):
    # p x p rounding leaves the planted directions of W^T (I - P) W near
    # eps * n instead of 0, which passed the former fixed 1e-8 sqrt(n) bound
    n, p = 8, 4
    rng = np.random.default_rng(3)
    z = rng.standard_normal((n, p))
    z[:, :] = _default_probe(n, p)[0]  # every column of W; z's draw keeps rng's order
    x = (np.sqrt(1.0 - rho) * z + np.sqrt(rho) * rng.standard_normal((n, 1))) * [1, 1, 100, 1]
    ds, spectrum = _design_and_response(x, 22)
    with pytest.raises(KnockoffInfeasible, match=IN_SPAN):
        knockoff_summary(ds, spectrum)


def test_knockoff_summary_infeasible_where_reference_is():
    n, p = 80, 6
    # the probe's columns span the design: both passes of the filter fail
    x = np.array(_default_probe(n, p)[0])
    ds, spectrum = _design_and_response(x, 21)
    for build in (
        lambda: build_knockoffs(normalize_columns(ds), spectrum.lambda_min, spectrum=spectrum),
        lambda: knockoff_summary(ds, spectrum),
    ):
        with pytest.raises(KnockoffInfeasible, match=IN_SPAN):
            build()

    # n < 2p, on a bare Dataset (from_arrays itself refuses it)
    small = np.random.default_rng(24).standard_normal((5, 3))
    norms = np.linalg.norm(small, axis=0)
    tiny = Dataset(
        x=small, y=np.zeros(5), n=5, p=3,
        gram=small.T @ small, col_norms=norms, normalizer_d=1.0 / norms,
        xty=np.zeros(3), row_norm_sq_max=float(np.max(np.sum(small**2, axis=1))),
    )
    with pytest.raises(KnockoffInfeasible):
        knockoff_summary(tiny, spectrum)


def test_knockoff_summary_rejects_indefinite_gram_like_reference():
    ds, _ = _design_and_response(np.random.default_rng(25).standard_normal((40, 3)), 26)
    bad = GramSpectrum(-np.eye(3), 0.5, 1.0, 1.0)
    with pytest.raises(InvalidDesign):
        build_knockoffs(normalize_columns(ds), 0.5, spectrum=bad)
    with pytest.raises(InvalidDesign):
        knockoff_summary(ds, bad)


# ---------------------------------------------------------------------------
# numpy's Cholesky solves against scipy.linalg (test-only reference)
# ---------------------------------------------------------------------------


def _scipy_orthonormalize_tall(w):
    """Two Cholesky-QR rounds on scipy's transposed triangular solve."""
    for _ in range(2):
        r = np.linalg.cholesky(w.T @ w).T
        w = solve_triangular(r, w.T, lower=False, trans="T").T
    return w


def _scipy_complement_crossprod(ds, xty, sigma_prime):
    """U^T y for the default probe, solved with cho_solve/solve_triangular."""
    cho = cho_factor(sigma_prime, lower=True)
    w, wtw = _default_probe(ds.n, ds.p)
    xtw = ds.normalizer_d[:, None] * (ds.x.T @ w)
    r = np.linalg.cholesky(wtw - xtw.T @ cho_solve(cho, xtw)).T
    return solve_triangular(r, w.T @ ds.y - xtw.T @ cho_solve(cho, xty), lower=False, trans="T")


def _scipy_complement_basis(x_prime):
    """The default complement basis, projecting with cho_solve."""
    cho = cho_factor(x_prime.T @ x_prime, lower=True)
    w = _default_probe(*x_prime.shape)[0]
    for _ in range(2):
        w = w - x_prime @ cho_solve(cho, x_prime.T @ w)
    return _scipy_orthonormalize_tall(w)


def _assert_solves_match_scipy(a, b, tol):
    """S^{-1} b and L^{-1} b (R^{-T} b with R = L^T) through the inverse factor
    the decorrelation returns."""
    lower = np.linalg.cholesky(a)
    l_inv = knockoffs._decorrelation(GramSpectrum.from_gram(a))[0]
    reference = cho_solve(cho_factor(a, lower=True), b)
    assert _rel_gap(l_inv.T @ (l_inv @ b), reference) <= tol
    assert _rel_gap(l_inv @ b, solve_triangular(lower.T, b, lower=False, trans="T")) <= tol


@pytest.mark.parametrize("p", [2, 50])
@pytest.mark.parametrize("rhs_cols", [None, 7])
def test_lower_inverse_matches_scipy_well_conditioned(p, rhs_cols):
    rng = np.random.default_rng((p, rhs_cols or 0))
    z = rng.standard_normal((20 * p, p))
    a = z.T @ z / (20 * p)  # cond(a) below about 3
    b = rng.standard_normal(p if rhs_cols is None else (p, rhs_cols))
    _assert_solves_match_scipy(a, b, 1e-12)

    n = 4 * p
    ds, spectrum = _design_and_response(rng.standard_normal((n, p)), p)
    xty = ds.normalizer_d * (ds.x.T @ ds.y)
    l_inv = knockoffs._decorrelation(spectrum)[0]
    got = knockoffs._complement_crossprod(ds, xty, l_inv, spectrum.lambda_max / spectrum.lambda_min)
    assert _rel_gap(got, _scipy_complement_crossprod(ds, xty, spectrum.sigma_prime)) <= 1e-12
    w = rng.standard_normal((n, p))
    got = _orthonormalize_tall(w, knockoffs._rank_tol(n, 1.0))
    assert _rel_gap(got, _scipy_orthonormalize_tall(w)) <= 1e-12
    x_prime = normalize_columns(ds).x_prime
    assert _rel_gap(complement_basis(x_prime), _scipy_complement_basis(x_prime)) <= 1e-12


@pytest.mark.parametrize("log_cond", [2, 4, 6, 8])
def test_lower_inverse_matches_scipy_scaled_by_condition(log_cond):
    p = 30
    rng = np.random.default_rng(log_cond)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * np.logspace(0, -log_cond, p)) @ q.T
    a = (a + a.T) / 2.0
    # each side's forward error is O(p cond eps): the Cholesky solve is
    # backward stable and the computed triangular inverse is accurate to that
    tol = p * np.linalg.cond(a) * np.finfo(float).eps
    for b in (rng.standard_normal(p), rng.standard_normal((p, 4))):
        _assert_solves_match_scipy(a, b, tol)


def test_non_positive_definite_gram_raises_invalid_design():
    # unit diagonal like every S'; the leading 2 x 2 block is PD, the whole is not
    bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert np.linalg.eigvalsh(bad)[0] < 0.0
    # lambda_min is a fact of the private design: the message leaves it out
    with pytest.raises(InvalidDesign, match="^normalized Gram matrix is numerically singular$"):
        GramSpectrum.from_gram(bad)
    spectrum = GramSpectrum(bad, 0.5, 2.0, float(np.linalg.norm(bad)))
    ds, _ = _design_and_response(np.random.default_rng(27).standard_normal((40, 3)), 28)
    with pytest.raises(InvalidDesign):
        build_knockoffs(normalize_columns(ds), 0.5, spectrum=spectrum)
    with pytest.raises(InvalidDesign):
        knockoff_summary(ds, spectrum)


def test_orthonormalize_tall_refuses_rank_deficient_residual():
    n, p = 200, 5
    w = np.random.default_rng(29).standard_normal((n, p))
    duplicate = w.copy()
    duplicate[:, 4] = duplicate[:, 3]
    tiny = w.copy()
    tiny[:, 2] *= 1e-12  # its triangular diagonal falls below the rank tolerance
    for bad in (duplicate, tiny):
        assert _orthonormalize_tall(bad, knockoffs._rank_tol(n, 1.0)) is None
    u = _orthonormalize_tall(w, knockoffs._rank_tol(n, 1.0))
    assert np.allclose(u.T @ u, np.eye(p), atol=1e-12)


def _filter_path(ds):
    """What run_knockoff_filter computes: S' = D G D and the raw-product summary."""
    spectrum = gram_spectrum(ds)
    return spectrum, knockoff_summary(ds, spectrum), raw_gram_frobenius(ds)


def _reference_path(ds):
    """The same quantities from the explicit X' and the n x p copy."""
    nd = normalize_columns(ds)
    spectrum = GramSpectrum.from_gram(nd.x_prime.T @ nd.x_prime)
    ref = build_knockoffs(nd, choose_s(spectrum), spectrum=spectrum).summary(ds.y)
    col_norms = 1.0 / nd.normalizer_d
    frob = float(np.linalg.norm(spectrum.sigma_prime * np.outer(col_norms, col_norms), "fro"))
    return spectrum, ref, frob


RHO_WELL_CONDITIONED = [0.0, 0.5, 0.9, 0.99]
RHO_ILL_CONDITIONED = [0.999, 0.9999, 0.99999, 0.999999, 0.9999999]
# Past cond(S') ~ 1e4 the filter-vs-reference gap is held to
# COND_GAP_FACTOR * cond(S') * eps, times the probe residual factor for
# [X' Xt]^T y.  Over 3000 random designs at these rho values (300 per value
# and seed, two seeds) the worst gap was 1.6 of those units.
COND_GAP_FACTOR = 50.0


def _probe_residual_factor(ds):
    """max(1, n / sigma_min((I - P) W)^2) for the probe W.

    The filter forms R^T R = W^T (I - P) W in p x p products, so its rounding
    in U^T y grows with this factor as well as with cond(S'); it is large
    only when n is close to 2p.
    """
    q, _ = np.linalg.qr(normalize_columns(ds).x_prime)
    w, _ = _default_probe(ds.n, ds.p)
    smin = np.linalg.svd(w - q @ (q.T @ w), compute_uv=False)[-1]
    return max(1.0, ds.n / smin**2)


def _outcome(path, ds):
    try:
        return path(ds), None
    except DPKnockoffError as exc:
        return None, type(exc)


def _hostile_design(p, n_factor, log_scales, rho, plant_probes, seed):
    """Equicorrelated columns (rho) with norms 10^log_scales, n = n_factor * p."""
    n = n_factor * p
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    if plant_probes:
        # columns of the probe inside the design span: the filter and the
        # reference must give up with the same error
        z[:, : p // 2 * 2] = _default_probe(n, p)[0][:, : p // 2 * 2]
    x = np.sqrt(1.0 - rho) * z + np.sqrt(rho) * rng.standard_normal((n, 1))
    x *= 10.0 ** np.asarray(log_scales[:p])
    y = x[:, 0] / np.linalg.norm(x[:, 0]) + rng.standard_normal(n)
    return Dataset.from_arrays(x, y)


@settings(max_examples=135, deadline=None, derandomize=True)
@given(
    p=st.integers(2, 12),
    n_factor=st.sampled_from([2, 3, 10]),
    log_scales=st.lists(st.floats(-6.0, 6.0), min_size=12, max_size=12),
    # equicorrelation of the columns; up to 0.99 cond(S') stays near 1e4 or
    # below, and the values past it reach cond(S') of about 1e9
    rho=st.sampled_from(RHO_WELL_CONDITIONED + RHO_ILL_CONDITIONED),
    plant_probes=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_path_matches_explicit_reference(p, n_factor, log_scales, rho, plant_probes, seed):
    ds = _hostile_design(p, n_factor, log_scales, rho, plant_probes, seed)
    ref, ref_error = _outcome(_reference_path, ds)
    new, new_error = _outcome(_filter_path, ds)
    assert new_error is ref_error
    if ref_error is not None:
        return
    (spectrum, ks, frob), (ref_spectrum, ref_ks, ref_frob) = new, ref
    tol = cross_tol = 1e-10
    if rho in RHO_ILL_CONDITIONED:
        cond = ref_spectrum.lambda_max / ref_spectrum.lambda_min
        tol = COND_GAP_FACTOR * cond * np.finfo(float).eps
        cross_tol = tol * _probe_residual_factor(ds)
    assert _rel_gap(spectrum.sigma_prime, ref_spectrum.sigma_prime) <= tol
    for field in ("lambda_min", "lambda_max", "frobenius_norm"):
        assert getattr(spectrum, field) == pytest.approx(getattr(ref_spectrum, field), rel=tol)
    assert _rel_gap(ks.gram_g, ref_ks.gram_g) <= tol
    assert _rel_gap(ks.crossprod, ref_ks.crossprod) <= cross_tol
    assert frob == pytest.approx(ref_frob, rel=tol)


RHO_CENSUS = [0.99999, 0.999999, 0.9999999]


def _census(monkeypatch, designs, seed):
    """Run the filter and the reference on hostile designs drawn from ``designs``,
    a list of (n / p, probe columns planted), and tally their outcomes.

    Returns the counts of designs, refusals, planted refusals and refined
    summaries, and the worst relative gap of a refined [X' Xt]^T y to the
    reference, alone and in units of the equivalence test's bound.
    """
    refined = []
    probe_products = Dataset.probe_products
    monkeypatch.setattr(
        Dataset, "probe_products", lambda ds, m=None: refined.append(m) or probe_products(ds, m)
    )
    rng = np.random.default_rng(seed)
    tally = dict(designs=0, refused=0, planted_refused=0, refined=0, worst_gap=0.0, worst=0.0)
    for trial, (n_factor, plant) in enumerate(designs):
        ds = _hostile_design(
            int(rng.integers(2, 13)), n_factor, rng.uniform(-6.0, 6.0, 12),
            RHO_CENSUS[trial % len(RHO_CENSUS)], plant, int(rng.integers(2**32)),
        )
        refined.clear()
        new, new_error = _outcome(_filter_path, ds)
        ref, ref_error = _outcome(_reference_path, ds)
        tally["designs"] += 1
        if plant:
            assert new_error is ref_error is KnockoffInfeasible
            tally["planted_refused"] += 1
            continue
        assert new_error is not KnockoffInfeasible and ref_error is not KnockoffInfeasible
        assert new_error is ref_error
        if new_error is not None:
            tally["refused"] += 1
        elif refined[-1] is not None:
            spectrum, ks, _ = new
            cond = spectrum.lambda_max / spectrum.lambda_min
            bound = COND_GAP_FACTOR * cond * np.finfo(float).eps * _probe_residual_factor(ds)
            gap = _rel_gap(ks.crossprod, ref[1].crossprod)
            assert gap <= bound
            tally["refined"] += 1
            tally["worst_gap"] = max(tally["worst_gap"], gap)
            tally["worst"] = max(tally["worst"], gap / bound)
    return tally


@pytest.mark.slow
def test_census_refines_every_rounding_refusal_and_refuses_only_planted_probes(monkeypatch):
    # n = 2p, cond(S') up to about 1e9 and column norms over 1e-6..1e6, where the
    # first Gram form is refused by rounding; n = 3p and 10p are controls
    designs = [(2, False)] * 10_000 + [(3, False)] * 1000 + [(10, False)] * 1000
    designs += [(n_factor, True) for n_factor in (2, 3, 10) for _ in range(500)]
    tally = _census(monkeypatch, designs, seed=2026)
    assert tally["designs"] == 13_500 and tally["planted_refused"] == 1500
    assert tally["refined"] >= 5


def test_cached_probe_is_read_only():
    w, wtw = _default_probe(50, 4)
    assert not w.flags.writeable and not wtw.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    assert _default_probe(50, 4)[0] is w


def test_concurrent_probe_draws_agree_and_are_cached(request):
    # the cache holds no lock, so concurrent first calls may each draw the
    # probe; every draw has the same bits and is read-only, and once one is
    # cached, later calls share it
    _default_probe.cache_clear()
    request.addfinalizer(_default_probe.cache_clear)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_default_probe, 20_011, 7) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    w0, wtw0 = results[0]
    for w, wtw in results:
        assert not w.flags.writeable and not wtw.flags.writeable
        assert w.tobytes() == w0.tobytes() and wtw.tobytes() == wtw0.tobytes()
    later = _default_probe(20_011, 7)
    assert any(later[0] is w and later[1] is wtw for w, wtw in results)
    assert _default_probe(20_011, 7)[0] is later[0]


# ---------------------------------------------------------------------------
# The decorrelation factor C at s = lambda_min(S')
# ---------------------------------------------------------------------------

# 1 - rho of 1e-15 and 2e-16 put cond(S') near 1/eps, where rounding can
# break the Cholesky of the Schur complement
RHO_NEAR_SINGULAR = [1.0 - 1e-15, 1.0 - 2.2e-16]
SCHUR_GAP_FACTOR = 10.0


def _exact_schur(spectrum):
    """2sI - s^2 S'^{-1} at s = lambda_min(S'), from the eigendecomposition of S'."""
    s = spectrum.lambda_min
    evals, vecs = np.linalg.eigh(spectrum.sigma_prime)
    return (vecs * (2.0 * s - s * s / evals)) @ vecs.T


def test_paired_blocks_builds_g_bitwise_as_np_block():
    # G = paired_blocks(S', -s) is np.block([[S', S' - sI], [S' - sI, S']]) bit
    # for bit over the equivalence family, hostile spectra included
    rng = np.random.default_rng(2025)
    rhos = RHO_WELL_CONDITIONED + RHO_ILL_CONDITIONED + RHO_NEAR_SINGULAR
    summaries = 0
    for trial in range(400):
        ds = _hostile_design(
            int(rng.integers(2, 13)), int(rng.choice([2, 3, 10])), rng.uniform(-6.0, 6.0, 12),
            rhos[trial % len(rhos)], bool(rng.integers(2)), int(rng.integers(2**32)),
        )
        try:
            spectrum = gram_spectrum(ds)
        except InvalidDesign:
            continue
        sigma, s = spectrum.sigma_prime, spectrum.lambda_min
        off = sigma - s * np.eye(ds.p)
        want = np.block([[sigma, off], [off, sigma]]).tobytes()
        assert knockoffs.paired_blocks(sigma, -s).tobytes() == want
        try:
            assert knockoff_summary(ds, spectrum).gram_g.tobytes() == want
        except (InvalidDesign, KnockoffInfeasible):
            continue
        summaries += 1
    assert summaries >= 150


def test_decorrelation_factors_the_schur_complement_or_refuses():
    # no ridge on the filter's path: C^T C is the Schur complement to
    # rounding, and a design whose complement rounds to singular is refused
    rng = np.random.default_rng(2024)
    rhos = RHO_WELL_CONDITIONED + RHO_ILL_CONDITIONED + RHO_NEAR_SINGULAR
    factored = refused = 0
    worst = 0.0
    for trial in range(1000):
        rho = rhos[trial % len(rhos)]
        ds = _hostile_design(
            int(rng.integers(2, 13)), int(rng.choice([2, 3, 10])), rng.uniform(-6.0, 6.0, 12),
            rho, bool(rng.integers(2)), int(rng.integers(2**32)),
        )
        try:
            spectrum = gram_spectrum(ds)
            _, _, c_upper = knockoffs._decorrelation(spectrum)
        except InvalidDesign:
            continue
        except KnockoffInfeasible:
            assert rho in RHO_NEAR_SINGULAR
            refused += 1
            continue
        factored += 1
        cond = spectrum.lambda_max / spectrum.lambda_min
        gap = _rel_gap(c_upper.T @ c_upper, _exact_schur(spectrum))
        worst = max(worst, gap / (cond * np.finfo(float).eps))
    assert worst <= SCHUR_GAP_FACTOR
    assert factored >= 800 and refused >= 3


def test_near_duplicate_column_is_refused_naming_the_check():
    n, p = 40, 4
    rng = np.random.default_rng(33)
    x = rng.standard_normal((n, p))
    x[:, -1] = x[:, 0] + 1e-8 * rng.standard_normal(n)
    ds = Dataset.from_arrays(x, x[:, 0] + rng.standard_normal(n))
    spectrum = gram_spectrum(ds)
    assert 1e15 < spectrum.lambda_max / spectrum.lambda_min < 1e17
    # cond(S') is a fact of the private design, so the message leaves it out
    with pytest.raises(KnockoffInfeasible) as refused:
        knockoff_summary(ds, spectrum)
    assert str(refused.value) == (
        "knockoff Schur complement 2sI - s^2 S'^-1 is numerically singular; "
        "the design is too nearly collinear"
    )


def test_reference_classic_s_copy_has_singular_augmented_gram(monkeypatch):
    # the equicorrelated s = 2 lambda_min(S') (Barber & Candes 2015) makes the
    # Schur complement singular; only the reference factors it, with a jitter retry
    failed = []
    cholesky = np.linalg.cholesky

    def spy(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            failed.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    rng = np.random.default_rng(44)
    checked = 0
    for trial in range(12):
        p = int(rng.integers(2, 21))
        nd = _random_design(int(rng.integers(2 * p, 4 * p + 1)), p, 7000 + trial)
        spectrum = gram_spectrum(nd.source)
        s = choose_s(spectrum, "classic")
        if s != 2.0 * spectrum.lambda_min:
            continue
        checked += 1
        ad = build_knockoffs(nd, s, spectrum=spectrum)
        assert np.max(np.abs(ad.gram_g - _target_gram(spectrum.sigma_prime, s))) <= 1e-8
        assert abs(np.linalg.eigvalsh(ad.gram_g)[0]) <= 1e-8
    assert checked >= 6 and failed  # some plain factorization needed the jitter
