"""Walk through the privacy calibration for one dataset.

The noise added by each release mechanism is driven by data-dependent
sensitivity bounds.  This script computes every calibration scalar for a
synthetic design and shows how the resulting noise variances respond to the
privacy budget.  Because the sensitivities are evaluated at the observed
dataset, the guarantee is local to this data.
"""

from dataclasses import replace

import numpy as np

from dpknockoff import Dataset, ModelOracle, PrivacyBudget
from dpknockoff.knockoffs import gram_spectrum
from dpknockoff.pipeline import _calibration
from dpknockoff.privacy import delta2_floor

rng = np.random.default_rng(7)
n, p, k = 5000, 20, 5
x = rng.standard_normal((n, p))
beta = np.zeros(p)
beta[:k] = 3.0
y = x @ beta + rng.standard_normal(n)
dataset = Dataset.from_arrays(x, y)

oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
budget = PrivacyBudget(eps=0.1, delta_1=0.01, delta_2=0.01,
                       eps_1=0.05, eps_2=0.05, delta=0.01)

# the filter's calibration of a dataset: its norm bounds B and C_min, the
# spectrum of S' and ||X^T X||_F, at a budget (no ridge term, B observed).
# _calibration is the package's internal helper, the one `dpknockoff
# calibrate` calls; its name may change without notice, and the command
# prints the same record as JSON.
ctx = _calibration(dataset, gram_spectrum(dataset), oracle, budget)
bounds = ctx.bounds
print(f"row bound B            = {bounds.row_bound_B:.4f}")
print(f"min column norm C_min  = {bounds.col_min_C:.4f}")
print(f"eta^2                  = {ctx.eta2:.6f}")
print(f"zeta                   = {ctx.zeta:.2f}")
print(f"gamma                  = {ctx.gamma:.4f}")
print(f"delta_2 floor (p={p})  = {delta2_floor(p):.3e}")

# the record derives each sensitivity and noise scale once, when first read
print(f"\nlambda_min sensitivity = {ctx.lambda_min_sensitivity:.6f}")
print(f"Gram Frobenius sens.   = {ctx.gram_frobenius_sensitivity:.6f}")
print(f"pair crossprod sens.   = {ctx.crossprod_sensitivity:.2f}")
print(f"estimate sens.         = {ctx.estimate_sensitivity:.2f}")

print("\nnoise scales for the pair release:")
print(f"  theta_1 Laplace scale = {ctx.theta1_scale:.4f}")
print(f"  kappa_1^2             = {ctx.kappa1_sq:.4f}")
print(f"  kappa_2^2             = {ctx.kappa2_sq:.1f}")

print("\nestimate-release variance vs. eps (delta_1 = 0.01):")
for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
    kappa_sq = replace(ctx, budget=replace(budget, eps=eps)).kappa_sq
    print(f"  eps = {eps:4.2f} -> kappa^2 = {kappa_sq:12.1f}")
