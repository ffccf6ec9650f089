"""Regression design containers: ingestion, validation and norm bounds.

The knockoff construction and the privacy calibration both operate on a design
matrix whose columns have been rescaled to unit l2 norm; the raw row/column
norms feed the data-dependent sensitivity bounds.  Normalization is the
diagonal scaling X' = X D with D = diag(1/||x_j||), so everything the filter
reads of X' follows from the raw Gram X^T X and raw products:
S' = D (X^T X) D, X'^T v = D X^T v, and ||x_j|| = sqrt((X^T X)_jj).  The filter
never forms X'.  This module holds the raw data model, its summaries
and the CSV ingestion path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    DimensionMismatch,
    InvalidDesign,
    ParseError,
)

ZERO_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Raw regression data: an n x p design matrix and a length-n response.

    Instances are validated at construction and immutable afterwards.  Use
    :meth:`from_arrays` or :func:`load_dataset` instead of the bare
    constructor: :meth:`from_arrays` copies the arrays it is given, so later
    writes to them do not reach the dataset, while :func:`load_dataset` and
    :func:`~dpknockoff.simulate.generate_trial` hand over the arrays they
    just built, so no n x p array is copied.  The raw Gram X^T X is the one
    n-length pass the column norms, the normalizer and the normalized Gram
    all derive from.  Validation computes it once, with the column norms
    sqrt(diag(X^T X)) and their reciprocals ``normalizer_d``, the diagonal
    of D in X' = X D.  ``x``, ``y`` and all three summaries are read-only.
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    p: int
    gram: np.ndarray
    col_norms: np.ndarray
    normalizer_d: np.ndarray

    @classmethod
    def from_arrays(cls, x, y) -> "Dataset":
        return cls._owned(np.array(x, dtype=float, ndmin=2), np.array(y, dtype=float).ravel())

    @classmethod
    def _owned(cls, x: np.ndarray, y: np.ndarray) -> "Dataset":
        """Validate a 2-D float x and 1-D float y and take ownership of both."""
        n, p = x.shape
        # a non-finite x_ij makes (X^T X)_jj non-finite, so x is scanned only
        # where the Gram is not finite, or not formed because the shape is refused
        gram = _raw_gram(x) if y.shape[0] == n and n >= 2 * p else None
        gram_finite = gram is not None and bool(np.all(np.isfinite(gram)))
        if not (gram_finite or np.all(np.isfinite(x))) or not np.all(np.isfinite(y)):
            raise InvalidDesign("design or response contains non-finite entries")
        if y.shape[0] != n:
            raise DimensionMismatch(
                f"response has {y.shape[0]} entries but design has {n} rows"
            )
        if n < 2 * p:
            raise InvalidDesign(
                f"n={n} < 2p={2 * p}: a knockoff copy needs at least twice as "
                "many samples as features"
            )
        if not gram_finite:
            raise InvalidDesign("X^T X overflows double precision; rescale the design columns")
        col_norms = np.sqrt(np.diag(gram))
        if np.any(col_norms < ZERO_COLUMN_TOL):
            bad = int(np.argmin(col_norms))
            raise InvalidDesign(
                f"column {bad} has (near-)zero norm; the Gram matrix would be singular"
            )
        normalizer_d = 1.0 / col_norms
        for array in (x, y, gram, col_norms, normalizer_d):
            array.setflags(write=False)
        return cls(x=x, y=y, n=n, p=p, gram=gram, col_norms=col_norms, normalizer_d=normalizer_d)


def _raw_gram(x: np.ndarray) -> np.ndarray:
    """X^T X; an overflow is left in place for :meth:`Dataset._owned` to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x.T @ x


@dataclass(frozen=True)
class NormBounds:
    """Norm bounds used by the sensitivity calculus.

    ``row_bound_B`` bounds the l2 norm of every row of the raw design;
    ``col_min_C`` is the smallest column l2 norm.  The row-influence ratio
    eta^2 = B^2 / (C_min^2 - B^2) is only defined when B < C_min, so that
    inequality is enforced here.
    """

    row_bound_B: float
    col_min_C: float

    def __post_init__(self):
        if not (self.row_bound_B > 0 and self.col_min_C > 0):
            raise BoundViolation("norm bounds must be strictly positive")
        if self.row_bound_B >= self.col_min_C:
            raise BoundViolation(
                f"row bound B={self.row_bound_B:g} must be strictly below the "
                f"smallest column norm C_min={self.col_min_C:g}; otherwise the "
                "row-influence ratio eta^2 = B^2/(C_min^2 - B^2) is undefined"
            )


@dataclass(frozen=True)
class ModelOracle:
    """Bounds on the unknown model parameters, plus optional ground truth.

    The privacy calibration needs an upper bound on ||beta||_2 and on the
    noise variance sigma^2; the library never estimates either.  Simulations
    additionally carry the true coefficient vector and its support so that
    per-trial FDP and power can be scored.
    """

    beta_norm_bound: float
    sigma2_bound: float
    true_beta: np.ndarray | None = None
    true_support: frozenset | None = None

    def __post_init__(self):
        if self.beta_norm_bound < 0:
            raise ValueError("beta_norm_bound must be nonnegative")
        if self.sigma2_bound <= 0:
            raise ValueError("sigma2_bound must be strictly positive")
        if self.true_beta is not None:
            beta = np.asarray(self.true_beta, dtype=float).ravel()
            object.__setattr__(self, "true_beta", beta)
            norm = float(np.linalg.norm(beta))
            if self.beta_norm_bound < norm * (1.0 - 1e-12):
                raise ValueError(
                    f"beta_norm_bound={self.beta_norm_bound:g} is below the "
                    f"true coefficient norm {norm:g}"
                )
            support = frozenset(int(j) for j in np.flatnonzero(beta))
            if self.true_support is None:
                object.__setattr__(self, "true_support", support)
            elif frozenset(self.true_support) != support:
                raise ValueError("true_support does not match the nonzeros of true_beta")
        elif self.true_support is not None:
            object.__setattr__(self, "true_support", frozenset(int(j) for j in self.true_support))


def load_dataset(x_path, y_path, has_header: bool = False) -> Dataset:
    """Load a design matrix and response vector from CSV files.

    The design file holds one sample per row with comma-separated numeric
    fields; the response file holds one value per line.  When ``has_header``
    is set the first line of each file is skipped.
    """
    skip = 1 if has_header else 0
    try:
        x = np.loadtxt(x_path, delimiter=",", skiprows=skip, ndmin=2, dtype=float)
    except OSError:
        raise
    except Exception as exc:
        raise ParseError(f"could not parse design file {x_path}: {exc}") from exc
    try:
        y = np.loadtxt(y_path, skiprows=skip, ndmin=1, dtype=float)
    except OSError:
        raise
    except Exception as exc:
        raise ParseError(f"could not parse response file {y_path}: {exc}") from exc
    return Dataset._owned(x, y.ravel())


def compute_bounds(d: Dataset, row_bound_override: float | None = None) -> NormBounds:
    """Derive norm bounds from the data, optionally overriding the row bound.

    ``col_min_C`` is always the exact smallest column norm.  ``row_bound_B``
    defaults to the observed largest row norm; ``row_bound_override``
    supplies a worst-case bound at or above it.  An override below it would
    calibrate for rows smaller than the data has, and raises
    :class:`BoundViolation` naming both values.
    """
    row_max = float(np.sqrt(np.einsum("ij,ij->i", d.x, d.x).max()))
    b = row_max if row_bound_override is None else float(row_bound_override)
    if b < row_max:
        raise BoundViolation(
            f"row bound B={b!r} is below the observed maximum row norm {row_max!r}; "
            "the calibration must cover every row"
        )
    return NormBounds(row_bound_B=b, col_min_C=float(d.col_norms.min()))
