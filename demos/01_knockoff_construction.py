"""Inspect the knockoff geometry the filter uses, without building the copy.

A knockoff copy Xt of a column-normalized design X' reproduces the Gram
matrix (Xt^T Xt = X'^T X') while decorrelating each column from its twin
(X'^T Xt = X'^T X' - s*I).  The filter fixes s = lambda_min(S') and never
forms Xt: `knockoff_summary` computes the augmented Gram G and the product
[X' Xt]^T y from p x p sufficient statistics.  This script compares the
closed-form extreme eigenvalues of G, which the privacy calibration reads,
with a direct eigendecomposition.  It then builds the explicit n x p copy
with the reference the tests use (tests/reference.py) and checks the
summary against it.
"""

import sys
from pathlib import Path

import numpy as np

from dpknockoff import Dataset
from dpknockoff.knockoffs import closed_form_gram_eigenvalues, gram_spectrum, knockoff_summary

# the explicit construction lives with the tests, outside the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import build_knockoffs, normalize_columns  # noqa: E402

rng = np.random.default_rng(1)
n, p = 500, 8
x = rng.standard_normal((n, p))
y = x[:, :3].sum(axis=1) + rng.standard_normal(n)
dataset = Dataset.from_arrays(x, y)

spectrum = gram_spectrum(dataset)
summary = knockoff_summary(dataset, spectrum)
s = spectrum.lambda_min
print(f"normalized Gram: lambda_min={spectrum.lambda_min:.4f}, "
      f"lambda_max={spectrum.lambda_max:.4f}")
print(f"decorrelation s = lambda_min(S') = {s:.4f}")

gmax, gmin = closed_form_gram_eigenvalues(spectrum)
evals = np.linalg.eigvalsh(summary.gram_g)
print(f"\naugmented Gram eigenvalues: closed form ({gmax:.4f}, {gmin:.4f}), "
      f"direct ({evals[-1]:.4f}, {evals[0]:.4f})")

# the explicit copy Xt = X'(I - s S'^{-1}) + U C, on the filter's probe
nd = normalize_columns(dataset)
ad = build_knockoffs(nd, s, spectrum=spectrum)
print("\nexplicit copy, block identity errors (max abs):")
print("  Xt^T Xt - S'      :", np.abs(ad.knockoff.T @ ad.knockoff - spectrum.sigma_prime).max())
print("  X'^T Xt - (S'-sI) :",
      np.abs(nd.x_prime.T @ ad.knockoff - (spectrum.sigma_prime - s * np.eye(p))).max())

explicit = ad.crossprod(y)
print("\nsummary against the explicit copy:")
print("  G, max abs error            :", np.abs(summary.gram_g - ad.gram_g).max())
print("  [X' Xt]^T y, max rel error  :",
      np.abs(summary.crossprod - explicit).max() / np.abs(explicit).max())
