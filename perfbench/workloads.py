"""Workload definitions shared by run.py and its child processes.

Pure Python on purpose: run.py reads these without importing numpy or
the package, so its own start-up never touches the measured code.
"""

# Seed used for tuning and for the stored reference outputs.  A claimed gain
# must also hold on HOLDOUT_SEED, which no change may be tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2

# The fixed linear model shared by every workload: the first K of P
# coefficients equal AMPLITUDE, noise variance SIGMA2, target FDR Q.
MODEL = dict(p=50, k=15, amplitude=4.5, sigma2=1.0, q=0.2)

# Sweep workloads: SimConfig fields (trials and base_seed are set per round).
SWEEPS = {
    # n x p passes dominate: complement_basis and generate_trial.
    "sweep_tall": dict(
        MODEL, n_grid=(100_000,), method="2", stat="csm", eps=0.2,
        delta_rule="two_p_over_n", threads=2,
    ),
    # Tiny n x p work: fixed per-call costs and the method-1 privacy path.
    "sweep_small": dict(
        MODEL, n_grid=(1_000,), method="1", stat="csm", eps=0.1, eps_1=0.05,
        eps_2=0.05, delta_rule="two_p_over_n", threads=2,
    ),
}

# Trials per run_sweep call ("round"); every round is timed on its own.
# Sized so that a round takes one to two seconds.
ROUND_TRIALS = {"sweep_tall": 2, "sweep_small": 16}

# The one-shot CLI workload: `dpknockoff run` on an N x P CSV.
RUN_CSV = dict(MODEL, n=100_000, method="2", stat="csm", eps=0.2)

WORKLOADS = ("sweep_tall", "sweep_small", "run_csv")

# Removed from every child's environment so the package runs with the BLAS
# thread defaults a user gets, oversubscription included.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def round_seed(seed: int, index: int) -> int:
    """base_seed of sweep round ``index`` (or release seed of invocation ``index``)."""
    return seed * 100_000 + index


def run_csv_args(x_path, y_path, index: int, seed: int) -> list:
    """Arguments of `dpknockoff run` for invocation ``index`` of the run_csv workload."""
    c = RUN_CSV
    delta = c["p"] / c["n"]
    beta_norm = c["amplitude"] * c["k"] ** 0.5
    return [
        "run", "--x", str(x_path), "--y", str(y_path),
        "--method", c["method"], "--stat", c["stat"], "--q", repr(c["q"]),
        "--eps", repr(c["eps"]), "--delta1", repr(delta), "--delta2", repr(delta),
        "--beta-norm-bound", repr(beta_norm), "--sigma2-bound", repr(c["sigma2"]),
        "--seed", str(round_seed(seed, index)),
    ]
