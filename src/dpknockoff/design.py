"""Regression design containers: ingestion, validation and norm bounds.

The knockoff construction and the privacy calibration both operate on a design
matrix whose columns have been rescaled to unit l2 norm; the raw row/column
norms feed the data-dependent sensitivity bounds.  Normalization is the
diagonal scaling X' = X D with D = diag(1/||x_j||), so everything the filter
reads of X' follows from the raw Gram X^T X and raw products:
S' = D (X^T X) D, X'^T v = D X^T v, and ||x_j|| = sqrt((X^T X)_jj).  The filter
never forms X'.  This module holds the raw data model, its cached summaries
and the CSV ingestion path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    Instances are validated at construction and treated as immutable
    afterwards.  Use :meth:`from_arrays` or :func:`load_dataset` instead of
    the bare constructor.  The raw Gram X^T X is the one n-length pass the
    column norms, the normalizer and the normalized Gram all derive from.
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    p: int

    @cached_property
    def gram(self) -> np.ndarray:
        """Raw Gram X^T X, symmetrized, computed once (read-only)."""
        with np.errstate(over="ignore", invalid="ignore"):  # from_arrays refuses inf/nan
            g = self.x.T @ self.x
            g = (g + g.T) / 2.0  # kill asymmetric rounding
        g.setflags(write=False)
        return g

    @cached_property
    def col_norms(self) -> np.ndarray:
        """Raw l2 norm of every design column, sqrt(diag(X^T X)) (read-only)."""
        norms = np.sqrt(np.diag(self.gram))
        norms.setflags(write=False)
        return norms

    @cached_property
    def normalizer_d(self) -> np.ndarray:
        """Reciprocal column norms, the diagonal of D in X' = X D (read-only)."""
        dvec = 1.0 / self.col_norms
        dvec.setflags(write=False)
        return dvec

    @classmethod
    def from_arrays(cls, x, y) -> "Dataset":
        x = np.array(x, dtype=float, ndmin=2)
        y = np.array(y, dtype=float).ravel()
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise InvalidDesign("design or response contains non-finite entries")
        n, p = x.shape
        if y.shape[0] != n:
            raise DimensionMismatch(
                f"response has {y.shape[0]} entries but design has {n} rows"
            )
        if n < 2 * p:
            raise InvalidDesign(
                f"n={n} < 2p={2 * p}: a knockoff copy needs at least twice as "
                "many samples as features"
            )
        dataset = cls(x=x, y=y, n=n, p=p)
        if not np.all(np.isfinite(dataset.gram)):
            raise InvalidDesign("X^T X overflows double precision; rescale the design columns")
        if np.any(dataset.col_norms < ZERO_COLUMN_TOL):
            bad = int(np.argmin(dataset.col_norms))
            raise InvalidDesign(
                f"column {bad} has (near-)zero norm; the Gram matrix would be singular"
            )
        return dataset


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
    return Dataset.from_arrays(x, y)


def compute_bounds(d: Dataset, row_bound_override: float | None = None) -> NormBounds:
    """Derive norm bounds from the data, optionally overriding the row bound.

    ``col_min_C`` is always the exact smallest column norm.  ``row_bound_B``
    defaults to the observed largest row norm; pass ``row_bound_override`` to
    supply a worst-case bound larger than observed.
    """
    col_min = float(d.col_norms.min())
    if row_bound_override is not None:
        b = float(row_bound_override)
    else:
        row_sq = np.einsum("ij,ij->i", d.x, d.x)
        b = float(np.sqrt(row_sq.max()))
    return NormBounds(row_bound_B=b, col_min_C=col_min)
