"""The explicit fixed-X knockoff construction the filter is tested against.

The package never forms the normalized design X' = X D or the n x p knockoff
copy (Barber & Candes 2015, arXiv:1404.5609): it computes the augmented Gram
and [X' Xt]^T y from sufficient statistics at s = lambda_min(S').  This
module builds both explicitly, for any s and, optionally, a seeded probe.
With the default probe it calls the package's own private helpers (probe,
Cholesky inverse, rank test, and the decorrelation C at s = lambda_min)
through the module, so both sides use the same basis U and the same C, and
a test that patches a helper reaches both.  Only the reference factors the
Schur complement at other s, such as the classic s = 2 lambda_min(S'),
where it is singular and needs a jitter retry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpknockoff import design, knockoffs
from dpknockoff.design import ZERO_COLUMN_TOL, Dataset
from dpknockoff.errors import InvalidDesign, KnockoffInfeasible, PreconditionViolated
from dpknockoff.knockoffs import GramSpectrum, KnockoffSummary

S_MODES = ("private_recommended", "classic")
_CHOLESKY_JITTER = 1e-10


@dataclass(frozen=True)
class NormalizedDesign:
    """Design with unit-l2 columns plus the diagonal rescaling that produced it.

    ``normalizer_d`` holds the reciprocals of the raw column norms, i.e.
    ``x_prime = x @ diag(normalizer_d)``.
    """

    x_prime: np.ndarray
    normalizer_d: np.ndarray
    source: Dataset


def normalize_columns(d: Dataset) -> NormalizedDesign:
    """Rescale every column of the design to unit l2 norm."""
    col_norms = d.col_norms
    if np.any(col_norms < ZERO_COLUMN_TOL):
        bad = int(np.argmin(col_norms))
        raise InvalidDesign(f"column {bad} has (near-)zero norm and cannot be normalized")
    return NormalizedDesign(x_prime=d.x * d.normalizer_d, normalizer_d=d.normalizer_d, source=d)


@dataclass(frozen=True)
class AugmentedDesign:
    """Normalized design, its knockoff copy, and the resulting augmented Gram."""

    design: NormalizedDesign
    knockoff: np.ndarray
    s_value: float
    gram_g: np.ndarray
    spectrum: GramSpectrum

    @classmethod
    def assemble(
        cls, nd: NormalizedDesign, knockoff: np.ndarray, s: float, spectrum: GramSpectrum
    ) -> "AugmentedDesign":
        """Bundle X', Xt and G = [X' Xt]^T [X' Xt]; G's top-left block is the spectrum's S'."""
        xtk = nd.x_prime.T @ knockoff
        ktk = knockoff.T @ knockoff
        ktk = (ktk + ktk.T) / 2.0
        return cls(
            design=nd,
            knockoff=knockoff,
            s_value=float(s),
            gram_g=np.block([[spectrum.sigma_prime, xtk], [xtk.T, ktk]]),
            spectrum=spectrum,
        )

    @property
    def p(self) -> int:
        return self.design.x_prime.shape[1]

    def augmented_matrix(self) -> np.ndarray:
        """The n x 2p matrix [X' Xt]."""
        return np.hstack([self.design.x_prime, self.knockoff])

    def crossprod(self, y) -> np.ndarray:
        """The length-2p feature-response product [X' Xt]^T y."""
        y = np.asarray(y, dtype=float).ravel()
        return np.concatenate([self.design.x_prime.T @ y, self.knockoff.T @ y])

    def summary(self, y) -> KnockoffSummary:
        """The summary the releases and statistics read, from the explicit copy."""
        return KnockoffSummary(gram_g=self.gram_g, crossprod=self.crossprod(y))


def choose_s(spectrum: GramSpectrum, mode: str = "private_recommended") -> float:
    """Pick the common diagonal s of the decorrelation matrix.

    ``private_recommended`` keeps the augmented Gram well conditioned by
    setting s = lambda_min(S'), so its smallest eigenvalue stays at
    lambda_min(S'); it is the filter's choice.  ``classic`` is the usual
    equicorrelated choice min(2*lambda_min(S'), 1), which drives the
    smallest eigenvalue of the augmented Gram to zero whenever
    2*lambda_min <= 1.
    """
    if spectrum.lambda_min <= 0.0:
        raise PreconditionViolated("s selection needs a strictly positive lambda_min")
    if mode == "private_recommended":
        return spectrum.lambda_min
    if mode == "classic":
        return min(2.0 * spectrum.lambda_min, 1.0)
    raise ValueError(f"unknown s mode {mode!r}; expected one of {S_MODES}")


def _seeded_probe(seed, n: int, p: int, attempt: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
    return np.random.default_rng(ss).standard_normal((n, p))


def complement_basis(x_prime: np.ndarray, seed=None) -> np.ndarray:
    """Orthonormal n x p basis of a subspace orthogonal to col(x_prime).

    A pseudorandom probe matrix is projected off the design's column span
    (twice, which keeps the residual orthogonal at working precision even
    for tall matrices) and then orthonormalized.  With the default
    ``seed=None`` the probe is the package's, so the basis is the one the
    filter's summary implies.  Passing a seed selects an alternative
    (equally valid) basis.
    """
    n, p = x_prime.shape
    if n < 2 * p:
        raise KnockoffInfeasible(f"orthogonal complement basis needs n >= 2p, got n={n}, p={p}")

    # orthonormal basis of col(x) from the Gram factorization, X' L^{-T}
    # (cheaper than a tall QR); fall back to QR if the Gram is not PD
    gram = x_prime.T @ x_prime
    try:
        q1 = x_prime @ knockoffs._lower_inverse(np.linalg.cholesky((gram + gram.T) / 2.0)).T
    except np.linalg.LinAlgError:
        q1, _ = np.linalg.qr(x_prime)

    def project_off(w):
        return w - q1 @ (q1.T @ w)

    for attempt in range(2):
        if seed is None:
            w, _ = design._default_probe(n, p, attempt)
        else:
            w = _seeded_probe(seed, n, p, attempt)
        w = project_off(project_off(w))
        # the filter's rank rule, so both refuse the same probes
        u = _orthonormalize_tall(w, knockoffs._rank_tol(n, np.linalg.cond(gram)))
        if u is not None:
            return u
    raise KnockoffInfeasible("probe matrix fell inside the design column span twice")


def _orthonormalize_tall(w: np.ndarray, rank_tol: float):
    """Orthonormal basis of col(w) for a well-conditioned tall matrix.

    Two rounds of Cholesky-QR; much faster than Householder QR on tall
    blocks and orthonormal to machine precision after the second round.
    Returns None when w looks rank deficient (Cholesky breakdown or a tiny
    triangular diagonal).
    """
    for _ in range(2):
        gram = w.T @ w
        try:
            lower = np.linalg.cholesky((gram + gram.T) / 2.0)
        except np.linalg.LinAlgError:
            return None
        if np.abs(np.diag(lower)).min() <= rank_tol:
            return None
        w = w @ knockoffs._lower_inverse(lower).T  # w R^{-1} with R = L^T
    return w


def decorrelation(spectrum: GramSpectrum, s: float):
    """(S'^{-1} sI, C) with C upper triangular and C^T C = 2sI - s^2 S'^{-1}, for any s.

    At s = lambda_min(S') this is the package's own factorization.  Other s
    factor the Schur complement here; it is positive definite in exact
    arithmetic for 0 < s < 2 lambda_min, but rounding, or the boundary
    choice s = 2 lambda_min, can push an eigenvalue below zero, so a failed
    Cholesky is retried once with a tiny ridge.
    """
    if s == spectrum.lambda_min:
        _, sigma_inv_s, c_upper = knockoffs._decorrelation(spectrum)
        return sigma_inv_s, c_upper
    p = spectrum.sigma_prime.shape[0]
    try:
        l_inv = knockoffs._lower_inverse(np.linalg.cholesky(spectrum.sigma_prime))
    except np.linalg.LinAlgError as exc:
        raise InvalidDesign("normalized Gram matrix is not positive definite") from exc
    sigma_inv_s = s * (l_inv.T @ l_inv)
    schur = 2.0 * s * np.eye(p) - s * sigma_inv_s
    for ridge in (0.0, _CHOLESKY_JITTER):
        try:
            return sigma_inv_s, np.linalg.cholesky(schur + ridge * np.eye(p)).T
        except np.linalg.LinAlgError:
            continue
    raise KnockoffInfeasible(
        "Schur complement is not positive semidefinite even after jitter; "
        "s may exceed the feasible range for this Gram matrix"
    )


def build_knockoffs(
    nd: NormalizedDesign,
    s: float,
    seed=None,
    spectrum: GramSpectrum | None = None,
) -> AugmentedDesign:
    """Construct the knockoff copy and the augmented Gram matrix explicitly.

    The copy is Xt = X'(I - S'^{-1} sI) + U C, where U is an orthonormal
    basis of the complement of col(X') and C^T C equals the Schur complement
    2sI - s^2 S'^{-1}.  ``seed`` is forwarded to :func:`complement_basis`;
    leave it ``None`` for the package's default basis.  Without a
    ``spectrum``, S' is computed explicitly as X'^T X'.
    """
    x = nd.x_prime
    n, p = x.shape
    if n < 2 * p:
        raise KnockoffInfeasible(f"knockoff copy needs n >= 2p, got n={n}, p={p}")
    if s < 0:
        raise PreconditionViolated(f"s must be nonnegative, got {s}")
    if spectrum is None:
        spectrum = GramSpectrum.from_gram(x.T @ x)

    if s == 0.0:
        # Degenerate decorrelation: the copy coincides with the design.
        knockoff = x.copy()
    else:
        sigma_inv_s, c_upper = decorrelation(spectrum, s)
        knockoff = x - x @ sigma_inv_s + complement_basis(x, seed=seed) @ c_upper
    return AugmentedDesign.assemble(nd, knockoff, s, spectrum)


@dataclass(frozen=True)
class SwapSet:
    """A set of feature indices whose original/knockoff columns get exchanged."""

    indices: frozenset

    def __post_init__(self):
        idx = frozenset(int(j) for j in self.indices)
        if any(j < 0 for j in idx):
            raise ValueError("swap indices must be nonnegative")
        object.__setattr__(self, "indices", idx)


def swap_columns_test(ad: AugmentedDesign, f: SwapSet) -> AugmentedDesign:
    """Exchange original and knockoff columns for every index in ``f``.

    Running the pipeline on the swapped design must flip exactly the signs
    of the swapped statistics (with fixed noise), which is the antisymmetry
    hypothesis behind FDR control.  The augmented Gram and its spectrum are
    recomputed from the swapped matrices.
    """
    p = ad.p
    idx = sorted(f.indices)
    if idx and idx[-1] >= p:
        raise ValueError(f"swap index {idx[-1]} out of range for p={p}")
    x = ad.design.x_prime.copy()
    kn = ad.knockoff.copy()
    x[:, idx], kn[:, idx] = kn[:, idx].copy(), x[:, idx].copy()
    nd = NormalizedDesign(x_prime=x, normalizer_d=ad.design.normalizer_d, source=ad.design.source)
    return AugmentedDesign.assemble(nd, kn, ad.s_value, GramSpectrum.from_gram(x.T @ x))
