"""Monte Carlo harness: synthetic trials, parallel sweeps, CSV reporting.

Each trial draws a fresh Gaussian design, runs the full filter, and scores
FDP and power against the known support.  Trials are independent work items
with seeds derived purely from (base_seed, grid index, trial index), so a
sweep is reproducible for any thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .design import Dataset, ModelOracle
from .errors import (
    BoundViolation,
    ConfigInvalid,
    DeltaTooSmall,
    DPKnockoffError,
    PrivacyPreconditionFailed,
    SweepAborted,
)
from .pipeline import METHODS, run_knockoff_filter
from .privacy import PrivacyBudget
from .selection import STATISTIC_KINDS, evaluate_selection

DELTA_RULES = ("two_p_over_n", "fixed")

# A sweep aborts when more than this fraction of trials at one sample size
# fail their privacy precondition.
MAX_FAILURE_RATE = 0.05

# Thread-count controls of the OpenBLAS bundled with numpy (the scipy-openblas64 build).
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one sweep.

    ``eps`` is the budget of the Gaussian mechanism on the released vector
    (the only epsilon of method 2); method 1 additionally spends ``eps_1``
    (Laplace, Gram scalar) and ``eps_2`` (Gaussian, Gram block).  The delta
    rule fixes the total delta per trial: ``two_p_over_n`` sets it to 2p/n
    (split equally across the knobs the method uses), ``fixed`` uses
    ``delta_value``.
    """

    n_grid: tuple
    p: int
    k: int
    amplitude: float
    sigma2: float
    q: float
    trials: int
    method: str = "none"
    stat: str = "lcd"
    eps: float = 0.0
    eps_1: float = 0.0
    eps_2: float = 0.0
    delta_rule: str = "two_p_over_n"
    delta_value: float | None = None
    base_seed: int = 0
    threads: int = 1
    pessimism: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "method", str(self.method))
        if not self.n_grid:
            raise ConfigInvalid("n_grid must not be empty")
        if not (self.p >= self.k >= 0):
            raise ConfigInvalid(f"need p >= k >= 0, got p={self.p}, k={self.k}")
        if any(n < 2 * self.p for n in self.n_grid):
            raise ConfigInvalid("every n in n_grid must satisfy n >= 2p")
        if not 0.0 < self.q < 1.0:
            raise ConfigInvalid(f"q must lie in (0,1), got {self.q}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be at least 1")
        if self.sigma2 <= 0:
            raise ConfigInvalid("sigma2 must be positive")
        if self.amplitude < 0:
            raise ConfigInvalid("amplitude must be nonnegative")
        if self.method not in METHODS:
            raise ConfigInvalid(f"method must be one of {METHODS}")
        if self.stat not in STATISTIC_KINDS:
            raise ConfigInvalid(f"stat must be one of {STATISTIC_KINDS}")
        if self.delta_rule not in DELTA_RULES:
            raise ConfigInvalid(f"delta_rule must be one of {DELTA_RULES}")
        if self.delta_rule == "fixed" and self.method != "none":
            if self.delta_value is None or not 0.0 < self.delta_value < 1.0:
                raise ConfigInvalid("fixed delta rule needs delta_value in (0,1)")
        if self.threads < 1:
            raise ConfigInvalid("threads must be at least 1")
        if self.pessimism < 1.0:
            raise ConfigInvalid("pessimism factor must be >= 1")
        if self.method == "1" and not (self.eps > 0 and self.eps_1 > 0 and self.eps_2 > 0):
            raise ConfigInvalid("method 1 needs eps, eps_1 and eps_2 all positive")
        if self.method == "2" and not self.eps > 0:
            raise ConfigInvalid("method 2 needs a positive eps")


@dataclass(frozen=True)
class SimRow:
    """Aggregates for one (n, method) cell of the sweep."""

    n: int
    method: str
    stat: str
    trials: int
    fdr_hat: float
    fdr_se: float
    power_hat: float
    power_se: float
    eps_total: float
    delta_total: float
    failures: int


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple = field(default_factory=tuple)


REPORT_COLUMNS = (
    "n", "method", "stat", "trials", "fdr_hat", "fdr_se",
    "power_hat", "power_se", "eps_total", "delta_total", "failures",
)


def generate_trial(n: int, cfg: SimConfig, trial_seed) -> tuple[Dataset, ModelOracle]:
    """Draw one synthetic dataset.

    Design entries are i.i.d. standard normal; the first k coefficients
    equal +amplitude (fixed support, common sign) and the response follows
    the linear model with noise variance sigma2.  The returned oracle holds
    the exact coefficient norm and the true variance, each inflated by the
    pessimism factor.
    """
    rng = np.random.default_rng(trial_seed)
    x = rng.standard_normal((n, cfg.p))
    beta = np.zeros(cfg.p)
    beta[: cfg.k] = cfg.amplitude
    y = x @ beta + rng.normal(0.0, math.sqrt(cfg.sigma2), size=n)
    with np.errstate(over="ignore"):  # an overflowing ||beta|| is inf; calibrate refuses it
        oracle = ModelOracle(
            beta_norm_bound=cfg.pessimism * float(np.linalg.norm(beta)),
            sigma2_bound=cfg.pessimism * cfg.sigma2,
            true_beta=beta,
            true_support=frozenset(range(cfg.k)),
        )
    return Dataset.from_arrays(x, y), oracle


def budget_for(cfg: SimConfig, n: int) -> PrivacyBudget | None:
    """Instantiate the per-trial budget at sample size n under the delta rule.

    The total delta is split equally across the delta knobs the method
    actually uses: thirds for method 1 (delta, delta_1, delta_2), halves for
    method 2 (delta_1, delta_2).
    """
    if cfg.method == "none":
        return None
    total = 2.0 * cfg.p / n if cfg.delta_rule == "two_p_over_n" else cfg.delta_value
    if cfg.method == "1":
        d = total / 3.0
        return PrivacyBudget(
            eps=cfg.eps, delta_1=d, delta_2=d, eps_1=cfg.eps_1, eps_2=cfg.eps_2, delta=d
        )
    d = total / 2.0
    return PrivacyBudget(eps=cfg.eps, delta_1=d, delta_2=d)


def budget_totals(cfg: SimConfig, n: int) -> tuple[float, float]:
    """Composed (eps, delta) cost per trial; (0, 0) when no mechanism runs."""
    budget = budget_for(cfg, n)
    return (0.0, 0.0) if budget is None else budget.totals(cfg.method)


def _trial_outcome(cfg: SimConfig, n: int, n_idx: int, t: int):
    """Run one trial; returns (fdp, power) or None on a privacy failure."""
    data_seed = np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(n_idx, t, 0))
    release_seed = np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(n_idx, t, 1))
    dataset, oracle = generate_trial(n, cfg, data_seed)
    budget = budget_for(cfg, n)
    try:
        result = run_knockoff_filter(
            dataset,
            q=cfg.q,
            stat=cfg.stat,
            method=cfg.method,
            budget=budget,
            oracle=oracle,
            seed=release_seed,
        )
    except (PrivacyPreconditionFailed, BoundViolation, DeltaTooSmall):
        return None
    return evaluate_selection(result.report, oracle)


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS in this process.

    Found through the libraries mapped into the process; empty where that
    listing or the symbols are absent.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        getter, setter = (getattr(lib, name, None) for name in _BLAS_THREAD_SYMBOLS)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((getter, setter))
    return tuple(controls)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore."""
    controls = _blas_thread_controls()
    previous = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, previous):
            setter(count)


def run_sweep(cfg: SimConfig) -> SimulationReport:
    """Run the full grid of sample sizes and aggregate FDR/power estimates.

    Trials run on a bounded thread pool; results are collected by trial
    index and aggregated in index order, so the report is a pure function of
    (cfg, base_seed) regardless of thread count.  Each trial runs its linear
    algebra on one BLAS thread: numpy's bundled OpenBLAS is pinned for
    the sweep's duration, whatever ``threads`` is, so trial threads do not
    oversubscribe the cores and every thread count computes the same bits.
    Trials whose privacy precondition fails are excluded from the means and
    counted under ``failures``.  A failure rate above MAX_FAILURE_RATE, or
    any other package error in a trial, aborts the sweep with
    :class:`SweepAborted`, which carries the rows of the sample sizes
    already finished.
    """
    with _single_blas_thread():
        return _run_grid(cfg)


def _run_grid(cfg: SimConfig) -> SimulationReport:
    rows = []
    grid = sorted(set(cfg.n_grid))
    for n_idx, n in enumerate(grid):
        trial = functools.partial(_trial_outcome, cfg, n, n_idx)
        try:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                outcomes = list(pool.map(trial, range(cfg.trials)))
        except DPKnockoffError as exc:
            raise SweepAborted(
                f"a trial at n={n} failed with {type(exc).__name__}: {exc}", rows=rows
            ) from exc

        kept = [o for o in outcomes if o is not None]
        failures = cfg.trials - len(kept)
        if failures > MAX_FAILURE_RATE * cfg.trials:
            raise SweepAborted(
                f"{failures}/{cfg.trials} trials failed their privacy precondition "
                f"at n={n}; the norm bounds are too loose for this sample size",
                rows=rows,
            )
        fdps = np.array([o[0] for o in kept])
        powers = np.array([o[1] for o in kept])
        if len(kept) > 1:
            fdr_se = float(np.std(fdps, ddof=1) / math.sqrt(len(kept)))
            power_se = float(np.std(powers, ddof=1) / math.sqrt(len(kept)))
        else:
            warnings.warn(f"only {len(kept)} trial(s) at n={n}; standard errors set to 0")
            fdr_se = power_se = 0.0
        eps_total, delta_total = budget_totals(cfg, n)
        rows.append(
            SimRow(
                n=n,
                method=cfg.method,
                stat=cfg.stat,
                trials=len(kept),
                fdr_hat=float(np.mean(fdps)),
                fdr_se=fdr_se,
                power_hat=float(np.mean(powers)),
                power_se=power_se,
                eps_total=eps_total,
                delta_total=delta_total,
                failures=failures,
            )
        )
    return SimulationReport(rows=tuple(rows))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_report(report: SimulationReport, out_path) -> None:
    """Write the sweep report as CSV, one row per (n, method), 6 significant digits."""
    lines = [",".join(REPORT_COLUMNS)]
    for row in sorted(report.rows, key=lambda r: r.n):
        lines.append(",".join(_fmt(getattr(row, col)) for col in REPORT_COLUMNS))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


PLOT_COLUMNS = ("n", "log10_n", "method", "stat", "fdr_hat", "fdr_se", "power_hat", "power_se")


def write_plot_data(report: SimulationReport, out_path) -> None:
    """Write a companion CSV shaped for plotting (log-scale sample size included)."""
    lines = [",".join(PLOT_COLUMNS)]
    for row in sorted(report.rows, key=lambda r: r.n):
        values = (
            row.n, math.log10(row.n), row.method, row.stat,
            row.fdr_hat, row.fdr_se, row.power_hat, row.power_se,
        )
        lines.append(",".join(_fmt(v) for v in values))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_CONFIG_KEYS = {
    "n_grid", "p", "k", "amplitude", "sigma2", "q", "trials", "method", "stat",
    "eps", "eps1", "eps2", "delta_rule", "delta_value", "base_seed", "threads",
    "pessimism",
}
_REQUIRED_KEYS = ("n_grid", "p", "k", "amplitude", "sigma2", "q", "trials")


def read_config(path) -> SimConfig:
    """Parse a flat key=value config file into a SimConfig.

    Lines look like ``key = value``; '#' starts a comment.  ``n_grid`` is a
    comma-separated list of sample sizes.  Keys mirror the SimConfig fields
    (with ``eps1``/``eps2`` for the split epsilons).
    """
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigInvalid(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigInvalid(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return SimConfig(
            n_grid=tuple(int(tok) for tok in raw["n_grid"].split(",") if tok.strip()),
            p=int(raw["p"]),
            k=int(raw["k"]),
            amplitude=float(raw["amplitude"]),
            sigma2=float(raw["sigma2"]),
            q=float(raw["q"]),
            trials=int(raw["trials"]),
            method=raw.get("method", "none"),
            stat=raw.get("stat", "lcd"),
            eps=float(raw.get("eps", 0.0)),
            eps_1=float(raw.get("eps1", 0.0)),
            eps_2=float(raw.get("eps2", 0.0)),
            delta_rule=raw.get("delta_rule", "two_p_over_n"),
            delta_value=float(raw["delta_value"]) if "delta_value" in raw else None,
            base_seed=int(raw.get("base_seed", 0)),
            threads=int(raw.get("threads", 1)),
            pessimism=float(raw.get("pessimism", 1.0)),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def with_overrides(cfg: SimConfig, seed: int | None = None, threads: int | None = None) -> SimConfig:
    """Copy of cfg with CLI-level overrides applied."""
    updates = {}
    if seed is not None:
        updates["base_seed"] = seed
    if threads is not None:
        updates["threads"] = threads
    return replace(cfg, **updates) if updates else cfg
