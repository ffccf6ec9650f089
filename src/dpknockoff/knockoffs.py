"""Fixed-X knockoff construction, from sufficient statistics.

Given a column-normalized design X' with Gram matrix S' = X'^T X', a knockoff
copy Xt is an n x p matrix satisfying, for a scalar s >= 0,

    Xt^T Xt = S',        X'^T Xt = S' - s*I,

so that the augmented Gram G = [X' Xt]^T [X' Xt] has the block form
[[S', S' - s*I], [S' - s*I, S']], which :func:`paired_blocks` builds.  The
copy is Xt = X'(I - s S'^{-1}) + U C, with U an orthonormal basis of a
p-dimensional subspace orthogonal to col(X') and C^T C = 2sI - s^2 S'^{-1}.
U is (I - P) W R^{-1} for a fixed probe W, the projector P onto col(X') and
R^T R = W^T (I - P) W, so the knockoff half of the feature-response product is

    Xt^T y = (I - s S'^{-1}) X'^T y + C^T R^{-T} (W^T y - (X'^T W)^T S'^{-1} X'^T y),
    R^T R  = W^T W - (X'^T W)^T S'^{-1} (X'^T W).

The filter fixes s = lambda_min(S'), which keeps lambda_min(G) at
lambda_min(S') and gives the closed-form lambda_max(G) the privacy
calibration reads; it also keeps the spectrum of 2sI - s^2 S'^{-1} in
[s, 2s), so one plain Cholesky gives C.  X' = X D is a diagonal rescaling of
the raw design, so S' = D (X^T X) D and X'^T [y W] = D X^T [y W].
:func:`gram_spectrum` and :func:`knockoff_summary` compute S', G and
[X' Xt]^T y from the dataset's p x p record alone: the raw Gram X^T X and
the raw products X^T y, X^T W, W^T y and W^T W, each a sum over rows, so a
design file can be streamed into them (see :func:`~dpknockoff.design.load_dataset`)
and neither X, X' nor the copy is formed here.  The products with the probe
W, or with its refinement, are read only through the record's
:meth:`~dpknockoff.design.Dataset.probe_products`.  The explicit n x p copy
they are tested against, and the decorrelation at any other s, live with
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Dataset
from .errors import InvalidDesign, KnockoffInfeasible


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

        S' is symmetrized first, the package's one symmetrization; a matrix
        that is not numerically positive definite is rejected.
        """
        s = (sigma_prime + sigma_prime.T) / 2.0  # kill asymmetric rounding
        evals = np.linalg.eigvalsh(s)
        lam_min = float(evals[0])
        lam_max = float(evals[-1])
        if lam_min <= 0.0:
            raise InvalidDesign("normalized Gram matrix is numerically singular")
        return cls(
            sigma_prime=s,
            lambda_min=lam_min,
            lambda_max=lam_max,
            frobenius_norm=float(np.linalg.norm(s, "fro")),
        )


@dataclass(frozen=True)
class KnockoffSummary:
    """The augmented Gram G and the product [X' Xt]^T y, without the copy.

    What the releases and the statistics read of the augmented design at
    s = lambda_min(S'); exact functions of the data, so never part of a result.
    """

    gram_g: np.ndarray
    crossprod: np.ndarray

    @property
    def p(self) -> int:
        return self.crossprod.shape[0] // 2


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
    return 2.0 * spectrum.lambda_max - spectrum.lambda_min, spectrum.lambda_min


def _rank_tol(n: int, cond: float) -> float:
    """Smallest accepted diagonal of the probe residual's triangular factor.

    R^T R formed from p x p products carries rounding near cond(S') * eps * n;
    a diagonal within 4 times its square root is indistinguishable from zero.
    """
    return 4.0 * np.sqrt(cond * np.finfo(float).eps * n)


def _decorrelation(spectrum: GramSpectrum):
    """Factor S' and return (L^{-1} for its Cholesky factor L, s S'^{-1}, C).

    s is lambda_min(S'), and C is upper triangular with C^T C equal to the
    Schur complement 2sI - s^2 S'^{-1}, whose spectrum lies in [s, 2s).  One
    plain Cholesky factors it; rounding of order cond(S') eps s only breaks
    it near cond(S') ~ 1/eps, where the design is refused.
    """
    s = spectrum.lambda_min
    p = spectrum.sigma_prime.shape[0]
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(spectrum.sigma_prime))
    except np.linalg.LinAlgError as exc:
        raise InvalidDesign("normalized Gram matrix is not positive definite") from exc
    sigma_inv_s = s * (l_inv.T @ l_inv)  # S'^{-1} * sI, via the factorization
    try:
        c_upper = np.linalg.cholesky(2.0 * s * np.eye(p) - s * sigma_inv_s).T
    except np.linalg.LinAlgError as exc:
        raise KnockoffInfeasible(
            "knockoff Schur complement 2sI - s^2 S'^-1 is numerically singular; "
            "the design is too nearly collinear"
        ) from exc
    return l_inv, sigma_inv_s, c_upper


def knockoff_summary(d: Dataset, spectrum: GramSpectrum) -> KnockoffSummary:
    """G and [X' Xt]^T y for the knockoff copy at s = lambda_min(S'), without it.

    G is the closed-form block matrix [[S', S'-sI], [S'-sI, S']] and the
    knockoff half of the product follows from the identity in the module
    docstring, with X'^T y = D X^T y and X'^T W = D X^T W taken from the
    dataset's record and :meth:`~dpknockoff.design.Dataset.probe_products`;
    ``d.x`` is never read.  A response so large that X^T y or W^T y
    overflows raises :class:`InvalidDesign`.
    """
    if d.n < 2 * d.p:
        raise KnockoffInfeasible(f"knockoff copy needs n >= 2p, got n={d.n}, p={d.p}")
    s = spectrum.lambda_min
    xty = d.normalizer_d * _finite_response_product(d.xty)
    l_inv, sigma_inv_s, c_upper = _decorrelation(spectrum)
    uty = _complement_crossprod(d, xty, l_inv, spectrum.lambda_max / s)
    kty = xty - sigma_inv_s.T @ xty + c_upper.T @ uty
    return KnockoffSummary(
        gram_g=paired_blocks(spectrum.sigma_prime, -s), crossprod=np.concatenate([xty, kty])
    )


def paired_blocks(a: np.ndarray, c: float) -> np.ndarray:
    """[[A, A + cI], [A + cI, A]] for a p x p block A and a scalar c.

    G is ``paired_blocks(S', -s)`` and the pair release's Gram noise is
    ``paired_blocks(theta_2, theta_1)``: theta_1 on the diagonals of the
    off-diagonal blocks, the symmetric zero-diagonal theta_2 in all four.
    That layout matches which entries of G a single row change can move, and
    it is invariant in distribution under any original/knockoff column swap.
    """
    p = a.shape[0]
    out = np.tile(a, (2, 2))
    rows = np.arange(2 * p)
    out[rows, (rows + p) % (2 * p)] += c
    return out


def _finite_response_product(product: np.ndarray) -> np.ndarray:
    """A product with the response, refused where it overflows double precision."""
    if not np.all(np.isfinite(product)):
        raise InvalidDesign(
            "products with the response overflow double precision; rescale the response y"
        )
    return product


def _complement_crossprod(d: Dataset, xty, l_inv, cond: float) -> np.ndarray:
    """U^T y for U = (I - P) W R^{-1}, from p x p algebra.

    With W the probe and R^T R = W^T (I - P) W, U^T y equals
    R^{-T} W^T (I - P) y.  ``l_inv`` is L^{-1} for the Cholesky factor L of
    S' = X'^T X', so P = Q Q^T with Q = X' L^{-T}, and ``xty`` is X'^T y.
    Where rounding (near cond(S') eps n) makes the Cholesky or :func:`_rank_tol`
    refuse R, it is formed again from Z = W - X m, X m = P W, whose Gram form
    has no cond(S') factor ("twice is enough", Giraud, Langou & Rozloznik
    2005); refused at _rank_tol(n, 1), W lies in the span.
    """
    qty, m = l_inv @ xty, None
    for tol in (_rank_tol(d.n, cond), _rank_tol(d.n, 1.0)):
        xtw, wty, wtw = d.probe_products(m)
        qtw = l_inv @ (d.normalizer_d[:, None] * xtw)
        try:
            r_lower = np.linalg.cholesky(wtw - qtw.T @ qtw)  # R^T
        except np.linalg.LinAlgError:
            r_lower = None
        if r_lower is not None and np.abs(np.diag(r_lower)).min() > tol:
            return np.linalg.solve(r_lower, _finite_response_product(wty) - qtw.T @ qty)
        m = d.normalizer_d[:, None] * (l_inv.T @ qtw)  # X m = X' L^{-T} Q^T W = P W
    raise KnockoffInfeasible("probe matrix lies inside the design column span")
