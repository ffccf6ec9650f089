"""One measured pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/child.py sweep --workload sweep_tall --seed 1 --seconds 20 \
        --threads 2 --trace 0 --workdir DIR
    python3 perfbench/child.py cli --seed 1 --seconds 20 --trace 0 --workdir DIR
    python3 perfbench/child.py cli-traced --spans FILE -- run --x ... (internal)

The last line of standard output is one JSON object with the raw
measurements; run.py turns them into metrics.  The environment comes from
run.py, which clears the BLAS thread variables and points PYTHONPATH at the
checkout's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
from workloads import (
    BLAS_THREAD_VARS, DEFAULT_SEED, ROUND_TRIALS, RUN_CSV, SWEEPS, round_seed, run_csv_args,
)

INVOCATION_TIMEOUT_S = 120


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _openblas_libraries():
    """OpenBLAS builds mapped into this process, from /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _blas_threads(path):
    """Default thread count and config string of one OpenBLAS library, read-only."""
    import ctypes

    lib = ctypes.CDLL(path)
    info = {"library": os.path.basename(path)}
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            info["default_threads"] = getter()
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["config"] = config().decode(errors="replace").strip()
            return info
    info["default_threads"] = None
    return info


def machine_record() -> dict:
    """Hardware and library facts of this process; numpy and scipy are loaded."""
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

    def blas_of(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "blas_runtime": [_blas_threads(p) for p in _openblas_libraries()],
        "blas_thread_vars_in_child": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
    }


def filter_record(report) -> dict:
    """A SelectionReport in the form `dpknockoff run` prints it."""
    t = report.threshold_t
    return {
        "selected": sorted(report.selected),
        "threshold": "inf" if t == float("inf") else t,
        "statistics": [float(v) for v in report.w.w],
    }


def first_trial_filter(cfg) -> dict:
    """The filter's selection on trial 0 of a sweep, drawn and seeded as
    run_sweep draws and seeds it; a sweep's rows alone may select nothing."""
    import numpy as np
    from dpknockoff.pipeline import run_knockoff_filter
    from dpknockoff.simulate import budget_for, generate_trial

    n = cfg.n_grid[0]
    data_seed = np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(0, 0, 0))
    release_seed = np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(0, 0, 1))
    dataset, oracle = generate_trial(n, cfg, data_seed)
    result = run_knockoff_filter(
        dataset, q=cfg.q, stat=cfg.stat, method=cfg.method,
        budget=budget_for(cfg, n), oracle=oracle, seed=release_seed,
    )
    return filter_record(result.report)


def sweep_pass(args) -> dict:
    import dpknockoff
    from dpknockoff.simulate import SimConfig, budget_totals, run_sweep, write_report

    settings = dict(SWEEPS[args.workload], threads=args.threads)
    trials = ROUND_TRIALS[args.workload]
    # Warm-up outside the timed rounds: lazy imports, BLAS thread start-up.
    run_sweep(SimConfig(**dict(settings, n_grid=(1_000,), trials=2 * args.threads)))
    # At the default seed the first process also records one trial's full
    # selection, untimed and untraced, for the reference check.
    first_filter = None
    if args.seed == DEFAULT_SEED and args.first_round == 0:
        cfg = SimConfig(**dict(settings, trials=trials, base_seed=round_seed(args.seed, 0)))
        first_filter = first_trial_filter(cfg)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    rounds = []
    csv_path = Path(args.workdir) / f"round-{os.getpid()}.csv"
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        index = args.first_round + len(rounds)
        cfg = SimConfig(**dict(settings, trials=trials, base_seed=round_seed(args.seed, index)))
        attempted = trials * len(cfg.n_grid)
        cpu0, t0 = _cpu_s(resource.RUSAGE_SELF), time.perf_counter()
        try:
            report = run_sweep(cfg)
            aborted = None
        except Exception as exc:  # an aborted sweep is a measured outcome
            report, aborted = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_s(resource.RUSAGE_SELF) - cpu0

        rows = []
        if aborted:
            problems, failed, kept = [f"sweep aborted: {aborted}"], attempted, 0
        else:
            write_report(report, csv_path)
            try:
                rows = checks.parse_sweep_csv(csv_path)
                totals = {n: budget_totals(cfg, n) for n in cfg.n_grid}
                problems = checks.check_sweep_rows(rows, cfg.n_grid, trials, totals)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"sweep CSV does not parse: {exc}"]
            kept = sum(r["trials"] for r in rows)
            failed = attempted if problems else attempted - kept
        rounds.append({
            "attempted": attempted, "failed": failed, "kept": kept,
            "wall_s": wall, "cpu_s": cpu, "problems": problems,
            "rows": rows if not rounds else None,
        })

    if tracer is not None:
        tracer.dump(Path(args.workdir) / f"spans-{os.getpid()}.jsonl")
    return {
        "rounds": rounds,
        "first_filter": first_filter,
        "peak_rss_MB": _maxrss_mb(resource.RUSAGE_SELF),
        "package": dpknockoff.__file__,
        "machine": machine_record(),
    }


def write_run_csv_data(seed: int, workdir: Path):
    """Draw the run_csv dataset from the workload seed and write it as CSV."""
    import numpy as np

    c = RUN_CSV
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c["n"], c["p"]))
    beta = np.zeros(c["p"])
    beta[: c["k"]] = c["amplitude"]
    y = x @ beta + rng.normal(0.0, c["sigma2"] ** 0.5, size=c["n"])
    x_path, y_path = workdir / "x.csv", workdir / "y.csv"
    np.savetxt(x_path, x, delimiter=",", fmt="%.10g")
    np.savetxt(y_path, y, fmt="%.10g")
    return x_path, y_path


def cli_pass(args) -> dict:
    import dpknockoff

    workdir = Path(args.workdir)
    x_path, y_path = write_run_csv_data(args.seed, workdir)
    c = RUN_CSV
    eps, delta = c["eps"], 2 * c["p"] / c["n"]
    this_file = str(Path(__file__).resolve())

    # One untimed invocation first: the CSV was just written and the first
    # read of it would otherwise stand out from every later one.
    subprocess.run([sys.executable, "-m", "dpknockoff", *run_csv_args(x_path, y_path, 0, args.seed)],
                   capture_output=True, timeout=INVOCATION_TIMEOUT_S)
    invocations = []
    start = time.perf_counter()
    while not invocations or time.perf_counter() - start < args.seconds:
        index = len(invocations)
        run_args = run_csv_args(x_path, y_path, index, args.seed)
        if args.trace:
            spans = workdir / f"spans-cli-{index}.jsonl"
            cmd = [sys.executable, this_file, "cli-traced", "--spans", str(spans), "--", *run_args]
        else:
            cmd = [sys.executable, "-m", "dpknockoff", *run_args]
        cpu0, t0 = _cpu_s(resource.RUSAGE_CHILDREN), time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        wall = time.perf_counter() - t0
        cpu = _cpu_s(resource.RUSAGE_CHILDREN) - cpu0

        record = None
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
        else:
            try:
                record = json.loads(proc.stdout)
                problems = checks.check_run_output(record, c["q"], eps, delta, c["p"])
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"output does not parse: {exc}"]
        invocations.append({
            "wall_s": wall, "cpu_s": cpu, "failed": bool(problems), "problems": problems,
            "output": record if index == 0 else None,
        })

    for path in (x_path, y_path):
        path.unlink()
    return {
        "invocations": invocations,
        "peak_rss_MB": _maxrss_mb(resource.RUSAGE_CHILDREN),
        "package": dpknockoff.__file__,
        "machine": machine_record(),
    }


def cli_traced(args) -> int:
    """`dpknockoff run` in this process with every layer traced."""
    tracer = tracing.Tracer()
    tracer.install()
    from dpknockoff import cli

    try:
        return tracer.wrap("cli.main", cli.main)(args.argv)
    finally:
        tracer.dump(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--workload", choices=sorted(SWEEPS), required=True)
    sweep.add_argument("--threads", type=int, required=True)
    sweep.add_argument("--first-round", type=int, default=0, help="index of the first round's seed")
    cli = sub.add_parser("cli")
    for p in (sweep, cli):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--workdir", required=True)
    traced = sub.add_parser("cli-traced")
    traced.add_argument("--spans", required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.mode == "cli-traced":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli_traced(args)
    print(json.dumps(sweep_pass(args) if args.mode == "sweep" else cli_pass(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
