"""Fixed-X knockoff construction.

Given a column-normalized design X' with Gram matrix S' = X'^T X', a knockoff
copy Xt is an n x p matrix satisfying, for a scalar s >= 0,

    Xt^T Xt = S',        X'^T Xt = S' - s*I,

so that the augmented Gram G = [X' Xt]^T [X' Xt] has the block form
[[S', S' - s*I], [S' - s*I, S']].  The copy is Xt = X'(I - s S'^{-1}) + U C,
with U an orthonormal basis of a p-dimensional subspace orthogonal to
col(X') and C^T C = 2sI - s^2 S'^{-1}.  U is (I - P) W R^{-1} for a fixed
probe W, the projector P onto col(X') and R^T R = W^T (I - P) W, so the
knockoff half of the feature-response product is

    Xt^T y = (I - s S'^{-1}) X'^T y + C^T R^{-T} (W^T y - (X'^T W)^T S'^{-1} X'^T y),
    R^T R  = W^T W - (X'^T W)^T S'^{-1} (X'^T W).

X' = X D is a diagonal rescaling of the raw design, so S' = D (X^T X) D and
X'^T [y W] = D X^T [y W].  :func:`gram_spectrum` and :func:`knockoff_summary`
compute S', G and [X' Xt]^T y from the raw Gram and the raw products X^T y,
X^T W and W^T y, without forming X'; :func:`build_knockoffs` builds X' and the
n x p copy explicitly and is the reference both are tested against.  The
module also exposes the two standard choices of s and the closed-form extreme
eigenvalues of G used by the privacy calibration.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .design import Dataset, NormalizedDesign
from .errors import InvalidDesign, KnockoffInfeasible, PreconditionViolated

# Deterministic probe used to span the orthogonal complement; not a secret,
# just a fixed arbitrary constant so the construction is reproducible.
_PROBE_ENTROPY = 0x5D2B1
_CHOLESKY_JITTER = 1e-10
# Default probes kept per (n, p, attempt); each holds an n x p array, so the
# bound caps the memory the cache can pin.
_PROBE_CACHE_SIZE = 4
_PROBE_LOCK = threading.Lock()

S_MODES = ("private_recommended", "classic")


@dataclass(frozen=True)
class GramSpectrum:
    """Normalized Gram matrix together with its spectral summary."""

    sigma_prime: np.ndarray
    lambda_min: float
    lambda_max: float
    frobenius_norm: float

    @classmethod
    def from_gram(cls, sigma_prime: np.ndarray) -> "GramSpectrum":
        """Extreme eigenvalues and Frobenius norm of a normalized Gram S'.

        S' is symmetrized first; a matrix that is not numerically positive
        definite is rejected.
        """
        s = (sigma_prime + sigma_prime.T) / 2.0  # kill asymmetric rounding
        evals = np.linalg.eigvalsh(s)
        lam_min = float(evals[0])
        lam_max = float(evals[-1])
        if lam_min <= 0.0:
            raise InvalidDesign(
                f"normalized Gram matrix is numerically singular (lambda_min={lam_min:.3e})"
            )
        return cls(
            sigma_prime=s,
            lambda_min=lam_min,
            lambda_max=lam_max,
            frobenius_norm=float(np.linalg.norm(s, "fro")),
        )


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

    def summary(self, y) -> "KnockoffSummary":
        """The summary the releases and statistics read, from the explicit copy."""
        return KnockoffSummary(
            gram_g=self.gram_g,
            crossprod=self.crossprod(y),
            s_value=self.s_value,
            spectrum=self.spectrum,
        )


@dataclass(frozen=True)
class KnockoffSummary:
    """The augmented Gram G and the product [X' Xt]^T y, without the copy.

    Everything the releases and the statistics read of an augmented design;
    no n x p array is held.
    """

    gram_g: np.ndarray
    crossprod: np.ndarray
    s_value: float
    spectrum: GramSpectrum

    @property
    def p(self) -> int:
        return self.crossprod.shape[0] // 2


def gram_spectrum(d: Dataset) -> GramSpectrum:
    """S' = D (X^T X) D and its extreme eigenvalues and Frobenius norm.

    Built from the dataset's raw Gram and normalizer; the n x p design is
    not read.
    """
    return GramSpectrum.from_gram(d.gram * np.outer(d.normalizer_d, d.normalizer_d))


def choose_s(spectrum: GramSpectrum, mode: str = "private_recommended") -> float:
    """Pick the common diagonal s of the decorrelation matrix.

    ``private_recommended`` keeps the augmented Gram well conditioned by
    setting s = lambda_min(S'), so its smallest eigenvalue stays at
    lambda_min(S').  ``classic`` is the usual equicorrelated choice
    min(2*lambda_min(S'), 1), which drives the smallest eigenvalue of the
    augmented Gram to zero whenever 2*lambda_min <= 1.
    """
    if spectrum.lambda_min <= 0.0:
        raise PreconditionViolated("s selection needs a strictly positive lambda_min")
    if mode == "private_recommended":
        return spectrum.lambda_min
    if mode == "classic":
        return min(2.0 * spectrum.lambda_min, 1.0)
    raise ValueError(f"unknown s mode {mode!r}; expected one of {S_MODES}")


def closed_form_gram_eigenvalues(spectrum: GramSpectrum, s: float) -> tuple[float, float]:
    """Extreme eigenvalues of the augmented Gram for the choice s = lambda_min(S').

    With that choice the 2p x 2p augmented Gram has spectrum equal to the
    union of {2*lambda_i(S') - lambda_min(S')} and {lambda_min(S')}, hence

        lambda_max(G) = 2*lambda_max(S') - lambda_min(S'),
        lambda_min(G) = lambda_min(S').

    Raises if s deviates from lambda_min(S') by more than 1e-10, since the
    closed form only holds under that hypothesis.
    """
    if abs(s - spectrum.lambda_min) > 1e-10:
        raise PreconditionViolated(
            f"closed-form eigenvalues require s = lambda_min(S') = "
            f"{spectrum.lambda_min:.12g}, got s = {s:.12g}"
        )
    return (
        2.0 * spectrum.lambda_max - spectrum.lambda_min,
        spectrum.lambda_min,
    )


def _draw_probe(entropy, n: int, p: int, attempt: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(attempt,))
    return np.random.default_rng(ss).standard_normal((n, p))


@functools.lru_cache(maxsize=_PROBE_CACHE_SIZE)
def _cached_probe(n: int, p: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    w = _draw_probe(_PROBE_ENTROPY, n, p, attempt)
    wtw = w.T @ w
    wtw = (wtw + wtw.T) / 2.0
    w.setflags(write=False)
    wtw.setflags(write=False)
    return w, wtw


def _default_probe(n: int, p: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """The default probe W for shape (n, p) and retry ``attempt``, with W^T W.

    Both depend only on (n, p, attempt), so they are drawn on first use and
    kept in a small bounded cache; the arrays are read-only because every
    caller shares them.  The lock keeps concurrent sweep trials from drawing
    the same probe twice.
    """
    with _PROBE_LOCK:
        return _cached_probe(n, p, attempt)


def complement_basis(x_prime: np.ndarray, seed=None) -> np.ndarray:
    """Orthonormal n x p basis of a subspace orthogonal to col(x_prime).

    A fixed pseudorandom probe matrix is projected off the design's column
    span (twice, which keeps the residual orthogonal at working precision
    even for tall matrices) and then orthonormalized.  With the default
    ``seed=None`` the probe is a package-level constant, so the basis is a
    deterministic function of the input matrix.  Passing a seed selects an
    alternative (equally valid) basis.
    """
    n, p = x_prime.shape
    if n < 2 * p:
        raise KnockoffInfeasible(f"orthogonal complement basis needs n >= 2p, got n={n}, p={p}")

    # projector onto col(x) via the Gram factorization (cheaper than a tall
    # QR); fall back to an explicit orthonormal basis if the Gram is not PD
    gram = x_prime.T @ x_prime
    try:
        cho = cho_factor((gram + gram.T) / 2.0, lower=True)

        def project_off(w):
            return w - x_prime @ cho_solve(cho, x_prime.T @ w)

    except np.linalg.LinAlgError:
        q1, _ = np.linalg.qr(x_prime)

        def project_off(w):
            return w - q1 @ (q1.T @ w)

    for attempt in range(2):
        if seed is None:
            w, _ = _default_probe(n, p, attempt)
        else:
            w = _draw_probe(seed, n, p, attempt)
        w = project_off(project_off(w))
        u = _orthonormalize_tall(w, _rank_tol(n))
        if u is not None:
            return u
    raise KnockoffInfeasible("probe matrix fell inside the design column span twice")


def _rank_tol(n: int) -> float:
    """Smallest accepted diagonal of the probe residual's triangular factor."""
    return 1e-8 * np.sqrt(float(n))


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
            r = np.linalg.cholesky((gram + gram.T) / 2.0).T
        except np.linalg.LinAlgError:
            return None
        if np.abs(np.diag(r)).min() <= rank_tol:
            return None
        w = solve_triangular(r, w.T, lower=False, trans="T").T
    return w


def _check_copy_request(n: int, p: int, s: float) -> None:
    if n < 2 * p:
        raise KnockoffInfeasible(f"knockoff copy needs n >= 2p, got n={n}, p={p}")
    if s < 0:
        raise PreconditionViolated(f"s must be nonnegative, got {s}")


def _decorrelation(spectrum: GramSpectrum, s: float):
    """Factor S' and return (its Cholesky factor, S'^{-1} sI, C).

    C is upper triangular with C^T C equal to the Schur complement
    2sI - s^2 S'^{-1}.
    """
    p = spectrum.sigma_prime.shape[0]
    try:
        cho = cho_factor(spectrum.sigma_prime, lower=True)
    except np.linalg.LinAlgError as exc:
        raise InvalidDesign("normalized Gram matrix is not positive definite") from exc
    sigma_inv_s = cho_solve(cho, s * np.eye(p))  # S'^{-1} * sI, via the factorization
    schur = 2.0 * s * np.eye(p) - s * sigma_inv_s
    schur = (schur + schur.T) / 2.0
    return cho, sigma_inv_s, _cholesky_with_jitter(schur)


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
    leave it ``None`` for the deterministic default basis.  Without a
    ``spectrum``, S' is computed explicitly as X'^T X'.  The filter itself
    uses :func:`knockoff_summary`; this is the reference it is tested against.
    """
    x = nd.x_prime
    n, p = x.shape
    _check_copy_request(n, p, s)
    if spectrum is None:
        spectrum = GramSpectrum.from_gram(x.T @ x)

    if s == 0.0:
        # Degenerate decorrelation: the copy coincides with the design.
        knockoff = x.copy()
    else:
        _, sigma_inv_s, c_upper = _decorrelation(spectrum, s)
        knockoff = x - x @ sigma_inv_s + complement_basis(x, seed=seed) @ c_upper
    return AugmentedDesign.assemble(nd, knockoff, s, spectrum)


def knockoff_summary(d: Dataset, s: float, spectrum: GramSpectrum) -> KnockoffSummary:
    """G and [X' Xt]^T y for the copy :func:`build_knockoffs` builds, without it.

    G is the closed-form block matrix [[S', S'-sI], [S'-sI, S']] and the
    knockoff half of the product follows from the identity in the module
    docstring, with X'^T y = D X^T y and X'^T W = D X^T W taken from the raw
    design, so the only n-length work is X^T y, X^T W and W^T y.  The probe,
    C, the rank test, the retry and the errors are those of
    :func:`build_knockoffs` with its default basis.
    """
    _check_copy_request(d.n, d.p, s)
    sigma = spectrum.sigma_prime
    xty = d.normalizer_d * (d.x.T @ d.y)

    if s == 0.0:
        off, kty = sigma, xty
    else:
        cho, sigma_inv_s, c_upper = _decorrelation(spectrum, s)
        off = sigma - s * np.eye(d.p)
        kty = xty - sigma_inv_s.T @ xty + c_upper.T @ _complement_crossprod(d, xty, cho)
    return KnockoffSummary(
        gram_g=np.block([[sigma, off], [off, sigma]]),
        crossprod=np.concatenate([xty, kty]),
        s_value=float(s),
        spectrum=spectrum,
    )


def _complement_crossprod(d: Dataset, xty, cho) -> np.ndarray:
    """U^T y for U = complement_basis(X'), from p x p algebra.

    With W the probe and R^T R = W^T (I - P) W, U^T y equals
    R^{-T} W^T (I - P) y; ``cho`` factors S' = X'^T X', which defines P, and
    ``xty`` is X'^T y.
    """
    n, p = d.n, d.p
    sinv_xty = cho_solve(cho, xty)
    for attempt in range(2):
        w, wtw = _default_probe(n, p, attempt)
        xtw = d.normalizer_d[:, None] * (d.x.T @ w)
        resid = wtw - xtw.T @ cho_solve(cho, xtw)
        try:
            r = np.linalg.cholesky((resid + resid.T) / 2.0).T
        except np.linalg.LinAlgError:
            continue
        if np.abs(np.diag(r)).min() <= _rank_tol(n):
            continue
        return solve_triangular(r, w.T @ d.y - xtw.T @ sinv_xty, lower=False, trans="T")
    raise KnockoffInfeasible("probe matrix fell inside the design column span twice")


def _cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Upper-triangular C with C^T C = mat, retrying once with a tiny ridge.

    The Schur complement is positive definite in exact arithmetic for
    0 < s < 2*lambda_min, but rounding (or the boundary choice s = 2*lambda_min)
    can push an eigenvalue below zero; one jitter retry covers that case.
    """
    try:
        return np.linalg.cholesky(mat).T
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(mat + _CHOLESKY_JITTER * np.eye(mat.shape[0])).T
    except np.linalg.LinAlgError as exc:
        raise KnockoffInfeasible(
            "Schur complement is not positive semidefinite even after jitter; "
            "s may exceed the feasible range for this Gram matrix"
        ) from exc


def raw_gram_frobenius(d: Dataset) -> float:
    """Frobenius norm of the unnormalized Gram X^T X."""
    return float(np.linalg.norm(d.gram, "fro"))
