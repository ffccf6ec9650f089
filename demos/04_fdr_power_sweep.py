"""Miniature FDR/power sweep over sample size.

A scaled-down version of the main experiment: both private mechanisms over
a small grid of sample sizes, a few dozen trials each, writing the same CSV
the command-line `simulate` subcommand produces.  The false discovery rate
stays at or below the target at every n, while power grows with n and the
estimate release dominates the pair release.

It runs in a few seconds on two cores.
"""

from dpknockoff import SimConfig, run_sweep, write_report
from dpknockoff.simulate import write_plot_data

GRID = (1000, 8000, 32000)
TRIALS = 40

common = dict(
    n_grid=GRID, p=30, k=8, amplitude=6.0, sigma2=1.0, q=0.2,
    trials=TRIALS, stat="csm", delta_rule="two_p_over_n",
    base_seed=2025, threads=2,
)

for method, extra in (("1", dict(eps=0.1, eps_1=0.05, eps_2=0.05)), ("2", dict(eps=0.2))):
    cfg = SimConfig(method=method, **extra, **common)
    report = run_sweep(cfg)
    print(f"method {method} (target FDR {cfg.q}):")
    for row in report.rows:
        print(f"  n={row.n:6d}  fdr={row.fdr_hat:.3f} (se {row.fdr_se:.3f})  "
              f"power={row.power_hat:.3f} (se {row.power_se:.3f})  "
              f"privacy=({row.eps_total:.3g}, {row.delta_total:.3g})")
    out = f"sweep_method{method}.csv"
    write_report(report, out)
    write_plot_data(report, f"sweep_method{method}_plot.csv")
    print(f"  wrote {out}\n")
