"""Monte Carlo harness: synthetic trials, parallel sweeps, CSV reporting.

Each trial draws a fresh Gaussian design, runs the full filter, and scores
FDP and power against the known support.  Trials are independent work items
with seeds derived purely from (base_seed, grid index, trial index), so a
sweep is reproducible for any number of worker processes.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import warnings
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from .design import Dataset, ModelOracle, _forked
from .errors import (
    BoundViolation,
    BudgetInvalid,
    ConfigInvalid,
    DPKnockoffError,
    PrivacyPreconditionFailed,
    SweepAborted,
)
from .pipeline import METHODS, run_knockoff_filter
from .privacy import PrivacyBudget, delta2_floor
from .selection import STATISTIC_KINDS, evaluate_selection

DELTA_RULES = ("two_p_over_n", "fixed")

# A sweep aborts when more than this fraction of trials at one sample size
# fail their privacy precondition.
MAX_FAILURE_RATE = 0.05


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one sweep.

    ``eps`` is the budget of the Gaussian mechanism on the released vector
    (the only epsilon of method 2); method 1 additionally spends ``eps_1``
    (Laplace, Gram scalar) and ``eps_2`` (Gaussian, Gram block).  The delta
    rule fixes the total delta per trial: ``two_p_over_n`` sets it to 2p/n
    (split equally across the knobs the method uses), ``fixed`` uses
    ``delta_value``.  ``threads`` is the number of processes each sample
    size's trials run on, this one and forked workers, capped at ``trials``
    and at the CPUs in ``os.sched_getaffinity(0)``; 1 runs them in-process.
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
        object.__setattr__(self, "n_grid", tuple(_count("n_grid", n) for n in self.n_grid))
        for name in ("p", "k", "trials", "threads", "base_seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "method", str(self.method))
        if not self.n_grid:
            raise ConfigInvalid("n_grid must not be empty")
        if not (self.p >= max(self.k, 1) and self.k >= 0):
            raise ConfigInvalid(f"need p >= 1 and p >= k >= 0, got p={self.p}, k={self.k}")
        if any(n < 2 * self.p for n in self.n_grid):
            raise ConfigInvalid("every n in n_grid must satisfy n >= 2p")
        if not 0.0 < self.q < 1.0:
            raise ConfigInvalid(f"q must lie in (0,1), got {self.q}")
        if self.trials < 1:
            raise ConfigInvalid("trials must be at least 1")
        if not 0 < self.sigma2 < math.inf:  # also refuses nan
            raise ConfigInvalid(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0 <= self.amplitude < math.inf:
            raise ConfigInvalid(f"amplitude must be nonnegative and finite, got {self.amplitude}")
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
        if self.base_seed < 0:
            raise ConfigInvalid(f"base_seed must be nonnegative, got {self.base_seed}")
        if not 1.0 <= self.pessimism < math.inf:
            raise ConfigInvalid(f"pessimism factor must be finite and >= 1, got {self.pessimism}")
        floor = delta2_floor(self.p)
        try:  # a budget that every trial at some n would refuse
            for n in self.n_grid:
                budget_totals(self, n)
                budget = budget_for(self, n)
                if budget is not None and budget.delta_2 <= floor:
                    raise ConfigInvalid(f"at n={n}, delta_2={budget.delta_2:g} must exceed "
                                        f"2*exp(-p/2)={floor:.3e}")
        except BudgetInvalid as exc:
            raise ConfigInvalid(str(exc)) from exc


def _count(name: str, value) -> int:
    """An integral ``value`` (1e5, 10.0) as an int; any other is refused naming its field."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        if int(value) == value:
            return int(value)
    raise ConfigInvalid(f"{name} must be a whole number, got {value!r}")


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


REPORT_COLUMNS = tuple(f.name for f in fields(SimRow))


def generate_trial(n: int, cfg: SimConfig, trial_seed) -> tuple[Dataset, ModelOracle]:
    """Draw one synthetic dataset.

    Design entries are i.i.d. standard normal; the first k coefficients
    equal +amplitude (fixed support, common sign; amplitude 0 is the global
    null) and the response follows the linear model with noise variance
    sigma2.  The returned oracle holds the exact coefficient norm and the
    true variance, each inflated by the pessimism factor; its support is
    read from the nonzeros of beta.
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
        )
    return Dataset._owned(x, y), oracle


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
    except (PrivacyPreconditionFailed, BoundViolation):
        return None
    return evaluate_selection(result.report, oracle)


def run_sweep(cfg: SimConfig) -> tuple[SimRow, ...]:
    """Run the full grid of sample sizes and aggregate FDR/power estimates.

    Returns one :class:`SimRow` per sample size, in order of n, all computed
    before it returns.  Each sample size's trials are shared by this process
    and workers forked for it (see ``SimConfig.threads``) and placed by trial
    index, so the rows are a pure function of (cfg, base_seed) for any worker
    count.  Each sample size runs under ``design._forked``, which pins numpy's
    OpenBLAS to one thread for this process's share and its workers', so
    trials do not oversubscribe the cores and any worker count computes the
    same bits.  Trials whose privacy
    precondition fails are excluded from the means and counted under
    ``failures``.  A failure rate above MAX_FAILURE_RATE, or any other
    package error in a trial (such as ``InvalidDesign`` from an overflowing
    response), aborts the sweep with :class:`SweepAborted`, which names the
    lowest failing trial's error and carries the rows of the sample sizes
    already finished.  :class:`SimConfig` refuses a budget that every trial
    would refuse, such as a delta_2 at or below its floor, before any runs.
    """
    return tuple(_sweep_rows(cfg))


def _cell_outcomes(cfg: SimConfig, n: int, n_idx: int) -> list:
    """The outcomes of one sample size's trials, in trial order.

    With w workers, this process runs the trials t = 0 (mod w) and worker k
    those with t = k (mod w).  Each side stops at its first failing trial;
    the failure with the lowest index is raised, as a serial loop raises it.
    """
    workers = min(cfg.threads, cfg.trials, len(os.sched_getaffinity(0)))

    def share(first: int) -> list:  # (t, outcome), or (t, exception) last
        done = []
        for t in range(first, cfg.trials, workers):
            try:
                done.append((t, _trial_outcome(cfg, n, n_idx, t)))
            except Exception as exc:
                done.append((t, exc))
                break
        return done

    sends = (lambda writer, k=k: writer.write(pickle.dumps(share(k))) for k in range(1, workers))
    with _forked(sends) as readers:
        done = share(0)
        try:
            for reader in readers:
                done += pickle.load(reader)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ChildProcessError(
                f"a sweep worker at n={n} ended before it sent its trials") from exc
    outcomes = dict(done)
    failed = [t for t, o in done if isinstance(o, BaseException)]
    if failed:
        raise outcomes[min(failed)]
    return [outcomes[t] for t in range(cfg.trials)]


def _sweep_rows(cfg: SimConfig):
    """:func:`run_sweep`'s rows, each yielded as its sample size finishes, in order of n."""
    rows = []
    for n_idx, n in enumerate(sorted(set(cfg.n_grid))):
        try:
            outcomes = _cell_outcomes(cfg, n, n_idx)
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
        rows.append(SimRow(
            n=n, method=cfg.method, stat=cfg.stat, trials=len(kept),
            fdr_hat=float(np.mean(fdps)), fdr_se=fdr_se,
            power_hat=float(np.mean(powers)), power_se=power_se,
            eps_total=eps_total, delta_total=delta_total, failures=failures,
        ))
        yield rows[-1]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


PLOT_COLUMNS = ("n", "log10_n", "method", "stat", "fdr_hat", "fdr_se", "power_hat", "power_se")


def _plot_values(row: SimRow) -> tuple:
    return (row.n, math.log10(row.n), row.method, row.stat,
            row.fdr_hat, row.fdr_se, row.power_hat, row.power_se)


def _same_file(a, b) -> bool:
    """``a`` and ``b`` name one existing file, or resolve to one path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # either does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def write_report(rows, out_path, plot_path=None) -> None:
    """Write sweep rows as CSV, one line per row in the order given, one
    column per SimRow field, with 6 significant digits.  Given ``plot_path``,
    also write a companion CSV shaped for plotting (log-scale sample size
    included).  ``rows`` may be any iterable, such as rows still being
    computed: both headers are written first, then each row's line to each
    file as the row arrives, flushed, so the rows written before a failure
    stay on disk.  Two paths naming one file raise :class:`ConfigInvalid`
    before either is opened or any row is read."""
    outputs = [(out_path, REPORT_COLUMNS, astuple)]
    if plot_path is not None:
        if _same_file(out_path, plot_path):
            raise ConfigInvalid(f"the report and the plot data would both go to {plot_path}")
        outputs.append((plot_path, PLOT_COLUMNS, _plot_values))
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                 for path, _, _ in outputs]
        for fh, (_, columns, _) in zip(files, outputs):
            fh.write(",".join(columns) + "\n")
            fh.flush()
        for row in rows:
            for fh, (_, _, values) in zip(files, outputs):
                fh.write(",".join(map(_fmt, values(row))) + "\n")
                fh.flush()


# Config-file spelling of the SimConfig fields that are not spelled as named.
_CONFIG_SPELLING = {"eps_1": "eps1", "eps_2": "eps2"}


def _parse_value(annotation: str, text: str):
    """Parse a config value as the SimConfig field annotation asks."""
    if annotation == "tuple":  # n_grid: comma-separated sample sizes
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    if annotation == "int":
        return int(text)
    if annotation == "str":
        return text
    return float(text)  # float, float | None


def read_config(path) -> SimConfig:
    """Parse a flat key=value config file into a SimConfig.

    Lines look like ``key = value``; '#' starts a comment.  ``n_grid`` is a
    comma-separated list of sample sizes.  Keys are the SimConfig fields
    (with ``eps1``/``eps2`` for the split epsilons); a field without a
    default is required.
    """
    by_key = {_CONFIG_SPELLING.get(f.name, f.name): f for f in fields(SimConfig)}
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
            if key not in by_key:
                raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigInvalid(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    missing = [k for k, f in by_key.items() if k not in raw and f.default is MISSING]
    if missing:
        raise ConfigInvalid(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return SimConfig(**{
            f.name: _parse_value(f.type, raw[key]) for key, f in by_key.items() if key in raw
        })
    except ValueError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
