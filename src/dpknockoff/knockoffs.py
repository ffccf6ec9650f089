"""Fixed-X knockoff construction, from sufficient statistics.

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

The filter fixes s = lambda_min(S'), which keeps lambda_min(G) at
lambda_min(S') and gives the closed-form lambda_max(G) the privacy
calibration reads.  X' = X D is a diagonal rescaling of the raw design, so
S' = D (X^T X) D and X'^T [y W] = D X^T [y W].  :func:`gram_spectrum` and
:func:`knockoff_summary` compute S', G and [X' Xt]^T y from the raw Gram and
the raw products X^T y, X^T W and W^T y, without forming X' or the copy.
The explicit n x p copy they are tested against lives with the tests.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .design import Dataset
from .errors import InvalidDesign, KnockoffInfeasible

# Deterministic probe used to span the orthogonal complement; not a secret,
# just a fixed arbitrary constant so the construction is reproducible.
_PROBE_ENTROPY = 0x5D2B1
_CHOLESKY_JITTER = 1e-10
# Default probes kept per (n, p, attempt); each holds an n x p array, so the
# bound caps the memory the cache can pin.
_PROBE_CACHE_SIZE = 4
_PROBE_LOCK = threading.Lock()


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
class KnockoffSummary:
    """The augmented Gram G and the product [X' Xt]^T y, without the copy.

    Everything the releases and the statistics read of an augmented design
    built at s = lambda_min(S'); no n x p array is held.
    """

    gram_g: np.ndarray
    crossprod: np.ndarray
    spectrum: GramSpectrum

    @property
    def p(self) -> int:
        return self.crossprod.shape[0] // 2

    @property
    def s_value(self) -> float:
        """The decorrelation s, lambda_min(S')."""
        return self.spectrum.lambda_min


def gram_spectrum(d: Dataset) -> GramSpectrum:
    """S' = D (X^T X) D and its extreme eigenvalues and Frobenius norm.

    Built from the dataset's raw Gram and normalizer; the n x p design is
    not read.
    """
    return GramSpectrum.from_gram(d.gram * np.outer(d.normalizer_d, d.normalizer_d))


def closed_form_gram_eigenvalues(spectrum: GramSpectrum) -> tuple[float, float]:
    """(lambda_max(G), lambda_min(G)) of the augmented Gram the filter builds.

    With s = lambda_min(S') the 2p x 2p augmented Gram has spectrum equal to
    the union of {2*lambda_i(S') - lambda_min(S')} and {lambda_min(S')}, hence

        lambda_max(G) = 2*lambda_max(S') - lambda_min(S'),
        lambda_min(G) = lambda_min(S').
    """
    return (
        2.0 * spectrum.lambda_max - spectrum.lambda_min,
        spectrum.lambda_min,
    )


@functools.lru_cache(maxsize=_PROBE_CACHE_SIZE)
def _cached_probe(n: int, p: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    ss = np.random.SeedSequence(entropy=_PROBE_ENTROPY, spawn_key=(attempt,))
    w = np.random.default_rng(ss).standard_normal((n, p))
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


def _rank_tol(n: int, cond: float) -> float:
    """Smallest accepted diagonal of the probe residual's triangular factor.

    R^T R formed from p x p products carries rounding near cond(S') * eps * n;
    a diagonal within 4 times its square root is indistinguishable from zero.
    """
    return 4.0 * np.sqrt(cond * np.finfo(float).eps * n)


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """L^{-1} for a lower Cholesky factor L of A, so A^{-1} = L^{-T} L^{-1}.

    One solve on the factor serves every later product with A^{-1}.
    """
    return np.linalg.solve(lower, np.eye(lower.shape[0]))


def _decorrelation(spectrum: GramSpectrum, s: float):
    """Factor S' and return (L^{-1} for its Cholesky factor L, S'^{-1} sI, C).

    C is upper triangular with C^T C equal to the Schur complement
    2sI - s^2 S'^{-1}.
    """
    p = spectrum.sigma_prime.shape[0]
    try:
        l_inv = _lower_inverse(np.linalg.cholesky(spectrum.sigma_prime))
    except np.linalg.LinAlgError as exc:
        raise InvalidDesign("normalized Gram matrix is not positive definite") from exc
    sigma_inv_s = s * (l_inv.T @ l_inv)  # S'^{-1} * sI, via the factorization
    schur = 2.0 * s * np.eye(p) - s * sigma_inv_s
    schur = (schur + schur.T) / 2.0
    return l_inv, sigma_inv_s, _cholesky_with_jitter(schur)


def knockoff_summary(d: Dataset, spectrum: GramSpectrum) -> KnockoffSummary:
    """G and [X' Xt]^T y for the knockoff copy at s = lambda_min(S'), without it.

    G is the closed-form block matrix [[S', S'-sI], [S'-sI, S']] and the
    knockoff half of the product follows from the identity in the module
    docstring, with X'^T y = D X^T y and X'^T W = D X^T W taken from the raw
    design, so the only n-length work is X^T y, X^T W and W^T y.  A response
    so large that X^T y or W^T y overflows raises :class:`InvalidDesign`.
    """
    if d.n < 2 * d.p:
        raise KnockoffInfeasible(f"knockoff copy needs n >= 2p, got n={d.n}, p={d.p}")
    s = spectrum.lambda_min
    sigma = spectrum.sigma_prime
    xty = d.normalizer_d * _response_product(d.x, d.y)
    l_inv, sigma_inv_s, c_upper = _decorrelation(spectrum, s)
    off = sigma - s * np.eye(d.p)
    uty = _complement_crossprod(d, xty, l_inv, spectrum.lambda_max / s)
    kty = xty - sigma_inv_s.T @ xty + c_upper.T @ uty
    return KnockoffSummary(
        gram_g=np.block([[sigma, off], [off, sigma]]),
        crossprod=np.concatenate([xty, kty]),
        spectrum=spectrum,
    )


def _response_product(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a^T y, refusing a response whose products overflow double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = a.T @ y
    if not np.all(np.isfinite(product)):
        raise InvalidDesign(
            "products with the response overflow double precision; rescale the response y"
        )
    return product


def _complement_crossprod(d: Dataset, xty, l_inv, cond: float) -> np.ndarray:
    """U^T y for U = (I - P) W R^{-1}, from p x p algebra.

    With W the default probe and R^T R = W^T (I - P) W, U^T y equals
    R^{-T} W^T (I - P) y.  ``l_inv`` is L^{-1} for the Cholesky factor L of
    S' = X'^T X', so P = Q Q^T with Q = X' L^{-T}, and ``xty`` is X'^T y.
    A diagonal of R at or below :func:`_rank_tol` puts the probe in the span.
    """
    n, p = d.n, d.p
    qty = l_inv @ xty
    for attempt in range(2):
        w, wtw = _default_probe(n, p, attempt)
        qtw = l_inv @ (d.normalizer_d[:, None] * (d.x.T @ w))
        resid = wtw - qtw.T @ qtw
        try:
            r_lower = np.linalg.cholesky((resid + resid.T) / 2.0)  # R^T
        except np.linalg.LinAlgError:
            continue
        if np.abs(np.diag(r_lower)).min() <= _rank_tol(n, cond):
            continue
        return np.linalg.solve(r_lower, _response_product(w, d.y) - qtw.T @ qty)
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
