"""Build a knockoff copy and inspect the geometry it must satisfy.

The copy Xt of a column-normalized design X' reproduces the Gram matrix
(Xt^T Xt = X'^T X') while decorrelating each column from its twin
(X'^T Xt = X'^T X' - s*I).  This script constructs the copy for a random
design, verifies the block identity numerically, and shows the closed-form
extreme eigenvalues of the augmented Gram used by the privacy calibration.
"""

import numpy as np

from dpknockoff import (
    Dataset,
    build_knockoffs,
    choose_s,
    closed_form_gram_eigenvalues,
    gram_spectrum,
    normalize_columns,
)

rng = np.random.default_rng(1)
n, p = 500, 8
x = rng.standard_normal((n, p))
dataset = Dataset.from_arrays(x, np.zeros(n))

nd = normalize_columns(dataset)
spectrum = gram_spectrum(dataset)
print(f"normalized Gram: lambda_min={spectrum.lambda_min:.4f}, "
      f"lambda_max={spectrum.lambda_max:.4f}")

for mode in ("private_recommended", "classic"):
    s = choose_s(spectrum, mode)
    print(f"s ({mode}) = {s:.4f}")

s = choose_s(spectrum, "private_recommended")
ad = build_knockoffs(nd, s, spectrum=spectrum)

# the three block identities, checked entrywise
off_target = spectrum.sigma_prime - s * np.eye(p)
print("\nblock identity errors (max abs):")
print("  Xt^T Xt - S'      :", np.abs(ad.knockoff.T @ ad.knockoff - spectrum.sigma_prime).max())
print("  X'^T Xt - (S'-sI) :", np.abs(nd.x_prime.T @ ad.knockoff - off_target).max())

# closed-form extremes of the augmented Gram vs. a direct eigendecomposition
gmax, gmin = closed_form_gram_eigenvalues(spectrum, s)
evals = np.linalg.eigvalsh(ad.gram_g)
print(f"\naugmented Gram eigenvalues: closed form ({gmax:.4f}, {gmin:.4f}), "
      f"direct ({evals[-1]:.4f}, {evals[0]:.4f})")

# s = 0 collapses the copy onto the design itself
degenerate = build_knockoffs(nd, 0.0, spectrum=spectrum)
print("\ns = 0 copy equals the design exactly:",
      np.array_equal(degenerate.knockoff, nd.x_prime))
