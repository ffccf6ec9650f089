"""Walk through the privacy calibration for one dataset.

The noise added by each release mechanism is driven by data-dependent
sensitivity bounds.  This script computes every calibration scalar for a
synthetic design and shows how the resulting noise variances respond to the
privacy budget.  Because the sensitivities are evaluated at the observed
dataset, the guarantee is local to this data.
"""

import numpy as np

from dpknockoff import Dataset, ModelOracle, PrivacyBudget
from dpknockoff.design import compute_bounds
from dpknockoff.knockoffs import gram_spectrum, raw_gram_frobenius
from dpknockoff.privacy import (
    build_sensitivity_context,
    delta2_floor,
    estimate_sensitivity,
    gaussian_scale,
    gram_sensitivities,
    laplace_scale,
    pair_crossprod_sensitivity,
)

rng = np.random.default_rng(7)
n, p, k = 5000, 20, 5
x = rng.standard_normal((n, p))
beta = np.zeros(p)
beta[:k] = 3.0
y = x @ beta + rng.standard_normal(n)
dataset = Dataset.from_arrays(x, y)

spectrum = gram_spectrum(dataset)
bounds = compute_bounds(dataset)
oracle = ModelOracle(beta_norm_bound=float(np.linalg.norm(beta)), sigma2_bound=1.0)
budget = PrivacyBudget(eps=0.1, delta_1=0.01, delta_2=0.01,
                       eps_1=0.05, eps_2=0.05, delta=0.01)

ctx = build_sensitivity_context(bounds, oracle, spectrum, raw_gram_frobenius(dataset), budget)
print(f"row bound B            = {bounds.row_bound_B:.4f}")
print(f"min column norm C_min  = {bounds.col_min_C:.4f}")
print(f"eta^2                  = {ctx.eta2:.6f}")
print(f"zeta                   = {ctx.zeta:.2f}")
print(f"gamma                  = {ctx.gamma:.4f}")
print(f"delta_2 floor (p={p})  = {delta2_floor(p):.3e}")

lam_sens, frob_sens = gram_sensitivities(ctx)
print(f"\nlambda_min sensitivity = {lam_sens:.6f}")
print(f"Gram Frobenius sens.   = {frob_sens:.6f}")
print(f"pair crossprod sens.   = {pair_crossprod_sensitivity(ctx):.2f}")
print(f"estimate sens.         = {estimate_sensitivity(ctx):.2f}")

print("\nnoise scales for the pair release:")
print(f"  theta_1 Laplace scale = {laplace_scale(lam_sens, budget.eps_1):.4f}")
print(f"  kappa_1^2             = {gaussian_scale(frob_sens, budget.eps_2, budget.delta):.4f}")
print(f"  kappa_2^2             = "
      f"{gaussian_scale(pair_crossprod_sensitivity(ctx), budget.eps, budget.delta_1):.1f}")

print("\nestimate-release variance vs. eps (delta_1 = 0.01):")
for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
    kappa_sq = gaussian_scale(estimate_sensitivity(ctx), eps, 0.01)
    print(f"  eps = {eps:4.2f} -> kappa^2 = {kappa_sq:12.1f}")
