"""Select variables from one dataset, with and without privacy.

Runs the full filter three ways on the same data: non-private, through the
noisy (Gram, feature-response) pair, and through the noisy coefficient
vector.  At this sample size and budget the estimate release recovers part
of the signal while the pair release drowns it, mirroring the power gap
between the two mechanisms; selections never include more than a q-fraction
of false positives on average.
"""

import numpy as np

from dpknockoff import Dataset, ModelOracle, PrivacyBudget, run_knockoff_filter
from dpknockoff.selection import evaluate_selection

rng = np.random.default_rng(11)
n, p, k, amplitude = 60_000, 30, 8, 6.0
x = rng.standard_normal((n, p))
beta = np.zeros(p)
beta[:k] = amplitude
y = x @ beta + rng.standard_normal(n)
dataset = Dataset.from_arrays(x, y)
oracle = ModelOracle(
    beta_norm_bound=float(np.linalg.norm(beta)),
    sigma2_bound=1.0,
    true_beta=beta,
)

# per-trial budget in the style of the simulation protocol: total delta 2p/n
delta_third = 2.0 * p / n / 3.0
budget_pair = PrivacyBudget(eps=0.1, delta_1=delta_third, delta_2=delta_third,
                            eps_1=0.05, eps_2=0.05, delta=delta_third)
delta_half = 2.0 * p / n / 2.0
budget_estimate = PrivacyBudget(eps=0.2, delta_1=delta_half, delta_2=delta_half)

runs = [
    ("non-private", dict(method="none")),
    ("pair release (eps total 0.2)", dict(method="1", budget=budget_pair)),
    ("estimate release (eps 0.2)", dict(method="2", budget=budget_estimate)),
]
for label, kwargs in runs:
    result = run_knockoff_filter(
        dataset, q=0.2, stat="csm", oracle=oracle, seed=1, **kwargs
    )
    fdp, power = evaluate_selection(result.report, oracle)
    print(f"{label:32s} selected={sorted(result.report.selected)}")
    print(f"{'':32s} fdp={fdp:.3f} power={power:.3f}")
    if result.release is not None:
        eps_total, delta_total = result.release.total_privacy
        print(f"{'':32s} privacy cost = ({eps_total:.3g}, {delta_total:.3g})")
    print()
