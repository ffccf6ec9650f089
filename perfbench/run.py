"""dpknockoff benchmark: entry point.

    python3 perfbench/run.py --workload sweep_tall --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``sweep_tall`` and ``sweep_small`` time
``simulate.run_sweep`` in rounds; ``run_csv`` times `python -m dpknockoff run`
invocations on a CSV written before timing starts.  Each measured pass runs
in a fresh interpreter (child.py) whose environment has the BLAS thread
variables removed, so the package runs with the BLAS defaults a user gets.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: an untraced pass, for sweeps a serial (threads=1) pass,
and a traced pass, each ``--seconds`` long.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  At the default
seed the first outputs of every pass are compared with reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
from workloads import BLAS_THREAD_VARS, DEFAULT_SEED, HOLDOUT_SEED, SWEEPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 8
SWEEP_PROCESSES = 6
ROUND_INDEX_STRIDE = 1000  # process j seeds its rounds from index j * stride
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> tuple[dict, dict]:
    """Environment for every child, and the BLAS thread variables removed from it."""
    env = dict(os.environ)
    cleared = {v: env.pop(v) for v in BLAS_THREAD_VARS if v in env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env, cleared


def measure_setup(env, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter until `import dpknockoff` returns.

    The child stamps CLOCK_MONOTONIC, which is system-wide, right after the
    import; interpreter shutdown is not counted.
    """
    code = "import dpknockoff, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    samples = []
    for _ in range(repeats):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import dpknockoff failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()) - t0)
    return samples


def run_child(mode_args, env) -> dict:
    """Run child.py in its own process group; on timeout the whole group is killed,
    CLI invocations included."""
    cmd = [sys.executable, str(HERE / "child.py"), *mode_args]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {mode_args[0]} ran longer than {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child {mode_args[0]} exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"child imported dpknockoff from {package}, not from this checkout")
    return result


def sweep_pass(args, env, workdir, threads, trace) -> dict:
    """One sweep pass: SWEEP_PROCESSES fresh processes, rounds pooled.

    Under BLAS oversubscription each process settles into its own speed, so
    a pass samples several processes rather than one for the whole time.
    """
    workdir.mkdir()
    pooled = {"rounds": [], "peak_rss_MB": 0.0, "workdir": workdir}
    for j in range(SWEEP_PROCESSES):
        result = run_child([
            "sweep", "--workload", args.workload, "--threads", str(threads),
            "--seed", str(args.seed), "--seconds", str(args.seconds / SWEEP_PROCESSES),
            "--first-round", str(j * ROUND_INDEX_STRIDE),
            "--trace", str(trace), "--workdir", str(workdir),
        ], env)
        pooled["rounds"] += result["rounds"]
        pooled["peak_rss_MB"] = max(pooled["peak_rss_MB"], result["peak_rss_MB"])
        pooled.setdefault("machine", result["machine"])
        pooled.setdefault("first_filter", result["first_filter"])
    return pooled


def cli_pass(args, env, workdir, trace) -> dict:
    """One run_csv pass: a single client; every invocation is a fresh process."""
    workdir.mkdir()
    result = run_child([
        "cli", "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ], env)
    return dict(result, workdir=workdir)


def ops_of(result) -> list:
    """Operations of a pass: sweep rounds or CLI invocations, as
    (trials attempted, trials failed, wall s, cpu s, problems)."""
    if "rounds" in result:
        return [(r["attempted"], r["failed"], r["wall_s"], r["cpu_s"], r["problems"])
                for r in result["rounds"]]
    return [(1, int(r["failed"]), r["wall_s"], r["cpu_s"], r["problems"])
            for r in result["invocations"]]


def end_to_end(result, setup) -> dict:
    """End-to-end metrics of one untraced pass.

    An operation is one run_sweep call (a round of trials) or one CLI
    invocation, which counts as one trial.
    """
    ops = ops_of(result)
    trials = sum(op[0] for op in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (trials / sum(op[2] for op in ops), "1/s"),
        "run_s_p50": (statistics.median(op[2] for op in ops), "s"),
        "cpu_s_per_op": (sum(op[3] for op in ops) / trials, "s"),
        "peak_rss_MB": (result["peak_rss_MB"], "MB"),
    }


def reference_outputs(workload, passes) -> list:
    """The deterministic first outputs of every pass at the default seed, as
    (reference key, output, compare function)."""
    if workload in SWEEPS:
        return [out for p in passes for out in (
            ("rows", p["rounds"][0]["rows"], checks.compare_sweep_reference),
            ("first_filter", p["first_filter"], checks.compare_run_reference),
        )]
    return [("output", p["invocations"][0]["output"], checks.compare_run_reference)
            for p in passes]


def check_reference(workload, outputs) -> list:
    stored = json.loads(REFERENCE.read_text()).get(workload, {})
    problems = []
    for key, out, compare in outputs:
        if key not in stored:
            problems.append(f"no stored reference {workload}.{key} in {REFERENCE.name}")
        elif out is None:
            problems.append(f"reference: no {key} output to compare")
        else:
            problems += [f"reference {key}: {p}" for p in compare(out, stored[key])]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="dpknockoff benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; confirm claims on {HOLDOUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dpknockoff" / "__init__.py").is_file():
        raise BenchError(f"no dpknockoff sources under {ROOT / 'src'}")
    env, cleared = child_env()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    sweep = args.workload in SWEEPS
    try:
        # One untimed import writes the bytecode cache, as any user's first
        # run does; the timed imports are split before and after the passes.
        measure_setup(env, 1)
        setup = measure_setup(env, SETUP_REPEATS // 2)
        if sweep:
            threads = SWEEPS[args.workload]["threads"]
            plain = sweep_pass(args, env, workdir / "plain", threads, trace=0)
        else:
            plain = cli_pass(args, env, workdir / "plain", trace=0)
        passes = [plain]
        if args.trace:
            if sweep:
                serial = sweep_pass(args, env, workdir / "serial", 1, trace=0)
                traced = sweep_pass(args, env, workdir / "traced", threads, trace=1)
                passes += [serial, traced]
            else:
                traced = cli_pass(args, env, workdir / "traced", trace=1)
                passes.append(traced)
            spans = [tracing.load_spans(p) for p in sorted(traced["workdir"].glob("spans-*.jsonl"))]
            layers, errors_by_class = tracing.layer_stats(
                spans, sum(op[0] for op in ops_of(traced)))
        setup += measure_setup(env, SETUP_REPEATS - len(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in ops_of(p)]
    problems = [msg for op in ops for msg in op[4]]
    if args.seed == DEFAULT_SEED:
        problems += check_reference(args.workload, reference_outputs(args.workload, passes))
    attempted = sum(op[0] for op in ops)
    failed = sum(op[1] for op in ops)

    e2e = end_to_end(plain, setup)
    if args.trace:
        metrics = dict(layers)
        if sweep:
            kept = sum(r["kept"] for r in traced["rounds"])
            tried = sum(r["attempted"] for r in traced["rounds"])
            metrics["simulate.trials_kept_ratio"] = (kept / tried, "ratio")
            speedup = e2e["trials_per_s"][0] / end_to_end(serial, setup)["trials_per_s"][0]
            metrics["simulate.parallel_speedup"] = (speedup, "ratio")
            overhead = e2e["trials_per_s"][0] / end_to_end(traced, setup)["trials_per_s"][0]
        else:
            # run_csv runs no sweep: the simulate layer reports zero, like calls.
            metrics["simulate.trials_kept_ratio"] = (0.0, "ratio")
            metrics["simulate.parallel_speedup"] = (0.0, "ratio")
            overhead = end_to_end(traced, setup)["run_s_p50"][0] / e2e["run_s_p50"][0]
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        metrics = e2e

    machine = dict(plain["machine"], blas_thread_vars_cleared=cleared)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    unit_ops = "rounds" if sweep else "invocations"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops_of(plain))} {unit_ops} in the untraced pass, {attempted} trials in all passes")
    print(f"  setup_s samples: {len(setup)} fresh imports")
    lines = dict(e2e, failed_ops_ratio=(failed / attempted, f"ratio ({failed}/{attempted})"))
    if args.trace:
        lines.update(metrics)
    for name, (value, unit) in lines.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  errors by class: {json.dumps(errors_by_class, sort_keys=True)}")
    for msg in problems:
        print(f"  problem: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
