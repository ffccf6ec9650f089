"""Command-line interface.

Three subcommands:

* ``calibrate`` -- print the spectral summary and every privacy calibration
  scalar for a dataset and budget, as JSON.
* ``run``       -- run the knockoff filter once on CSV data and print the
  selection report as JSON.
* ``simulate``  -- run a Monte Carlo sweep from a config file and write CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

from .design import ModelOracle, _load_record, _single_blas_thread, compute_bounds, load_dataset
from .errors import DPKnockoffError, PreconditionViolated, PrivacyPreconditionFailed
from .knockoffs import gram_spectrum, raw_gram_frobenius
from .pipeline import METHODS, _check_arguments, run_knockoff_filter
from .privacy import PrivacyBudget, build_sensitivity_context, delta2_floor
from .selection import STATISTIC_KINDS
from .simulate import _spelling, _sweep_rows, read_config, write_report


def _finite(text: str) -> float:
    if math.isinf(float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return float(text)


def _nonnegative(text: str) -> float:
    if not _finite(text) >= 0.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return float(text)


def _positive(text: str) -> float:
    if not _finite(text) > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return float(text)


def _nonnegative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


def _add_data_flags(parser):
    parser.add_argument("--x", required=True, help="CSV file with the design matrix")
    parser.add_argument("--y", required=True, help="file with one response value per line")
    parser.add_argument("--header", action="store_true", help="skip one header line per file")
    parser.add_argument(
        "--row-bound", type=_positive, default=None,
        help="override for the row-norm bound B (default: observed max row norm)",
    )


def _add_budget_flags(parser):
    for f in fields(PrivacyBudget):  # --eps1 for eps_1, as a sweep config spells it
        parser.add_argument(f"--{_spelling(f.name)}", type=float)
    parser.add_argument("--beta-norm-bound", type=_nonnegative, default=None)
    parser.add_argument("--sigma2-bound", type=_positive, default=None)


# the argparse dests only a private run reads: the budget, the oracle, B and the release seed
_PRIVATE_DESTS = (*(_spelling(f.name) for f in fields(PrivacyBudget)),
                  "beta_norm_bound", "sigma2_bound", "row_bound", "seed")


def _budget_from_args(args) -> PrivacyBudget:
    budget = PrivacyBudget(**{f.name: getattr(args, _spelling(f.name))
                              for f in fields(PrivacyBudget)})
    if args.method == "1":
        budget.totals("1")  # refuses the pair release's unset knobs
    return budget


def _oracle_from_args(args):
    if args.beta_norm_bound is None or args.sigma2_bound is None:
        raise DPKnockoffError("--beta-norm-bound and --sigma2-bound are required here")
    return ModelOracle(beta_norm_bound=args.beta_norm_bound, sigma2_bound=args.sigma2_bound)


def _print_record(record: dict) -> None:
    """Print a command's record as JSON, a non-finite float as its name ("inf"):
    RFC 8259 JSON has no Infinity or NaN.  Only a top-level value can be
    non-finite; ``allow_nan`` refuses any other rather than print it."""
    named = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in record.items()}
    print(json.dumps(named, indent=2, allow_nan=False))


def cmd_calibrate(args) -> int:
    budget, oracle = _budget_from_args(args), _oracle_from_args(args)  # before any file is read
    # the calibration reads X^T X, the largest row norm, n and p: no probe
    dataset = _load_record(args.x, args.y, args.header, probe=False)
    spectrum = gram_spectrum(dataset)
    bounds = compute_bounds(dataset, args.row_bound)
    ctx = build_sensitivity_context(
        bounds, oracle, spectrum, raw_gram_frobenius(dataset), budget, args.ridge
    )
    try:
        m2_sens = ctx.estimate_sensitivity
    except PrivacyPreconditionFailed:
        m2_sens = None

    kappa = None  # without a finite estimate calibration, method 2 prints only its cost
    if args.method == "1" or m2_sens is not None:  # noise_scales refuses non-finite scales
        kappa = ctx.noise_scales(args.method)["kappa2_sq" if args.method == "1" else "kappa_sq"]
    eps_total, delta_total = budget.totals(args.method)

    record = {
        "n": dataset.n,
        "p": dataset.p,
        "lambda_min": spectrum.lambda_min,
        "lambda_max": spectrum.lambda_max,
        "s": spectrum.lambda_min,
        "g_lambda_max": ctx.gamma,
        "g_lambda_min": spectrum.lambda_min,
        "row_bound_B": bounds.row_bound_B,
        "col_min_C": bounds.col_min_C,
        "eta2": ctx.eta2,
        "zeta": ctx.zeta,
        "gamma": ctx.gamma,
        "lambda_min_sens": ctx.lambda_min_sensitivity,
        "gram_frob_sens": ctx.gram_frobenius_sensitivity,
        "delta2_floor": delta2_floor(dataset.p),
        "method1_sensitivity": ctx.crossprod_sensitivity,
        "method2_sensitivity": m2_sens,
        "theta1_scale": ctx.theta1_scale,
        "kappa1_sq": ctx.kappa1_sq,
        "kappa2_sq_or_kappa_sq": kappa,
        "total_eps": eps_total,
        "total_delta": delta_total,
    }
    _print_record(record)
    return 0


def cmd_run(args) -> int:
    budget = oracle = None  # every argument is refused before any file is read
    if args.method != "none":
        budget, oracle = _budget_from_args(args), _oracle_from_args(args)
    elif given := [d for d in _PRIVATE_DESTS if getattr(args, d) is not None]:
        raise PreconditionViolated(f"--{given[0].replace('_', '-')} is ignored under "
                                   "--method none; choose --method 1 or 2 for a private run")
    lam = getattr(args, "lambda")
    _check_arguments(args.method, args.q, lam, args.ridge, budget, oracle)
    dataset = load_dataset(args.x, args.y, has_header=args.header)
    result = run_knockoff_filter(
        dataset,
        q=args.q,
        stat=args.stat,
        method=args.method,
        budget=budget,
        oracle=oracle,
        lam=lam,
        ridge_omega2=args.ridge,
        row_bound_override=args.row_bound,
        seed=args.seed,
    )
    report = result.report
    eps_total, delta_total = result.release.total_privacy if result.release else (0.0, 0.0)
    record = {
        "selected": sorted(report.selected),
        "threshold": report.threshold_t,
        "statistics": [float(v) for v in report.w.w],
        "statistic_kind": report.w.statistic_kind,
        "q": report.q,
        "method": args.method,
        "total_privacy": {"eps": eps_total, "delta": delta_total},
    }
    _print_record(record)
    return 0


def cmd_simulate(args) -> int:
    overrides = {"base_seed": args.seed, "threads": args.threads}
    cfg = replace(read_config(args.config), **{k: v for k, v in overrides.items() if v is not None})
    write_report(_sweep_rows(cfg), args.out, args.emit_plot_data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpknockoff",
        description="FDR-controlled variable selection with private statistic release",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="print spectral and privacy calibration scalars")
    _add_data_flags(cal)
    _add_budget_flags(cal)
    cal.add_argument("--method", choices=METHODS[1:], default="1")  # the private methods
    cal.add_argument("--ridge", type=_nonnegative, default=0.0)
    cal.set_defaults(func=cmd_calibrate)

    run = sub.add_parser("run", help="run the knockoff filter once")
    _add_data_flags(run)
    _add_budget_flags(run)
    run.add_argument("--method", choices=METHODS, default="none")
    run.add_argument("--stat", choices=STATISTIC_KINDS, default="lcd")
    run.add_argument("--q", type=float, default=0.2)
    run.add_argument("--lambda", type=_nonnegative, default=0.0, help="lasso penalty (0 = OLS)")
    run.add_argument("--ridge", type=_nonnegative, default=0.0, help="ridge term omega^2")
    run.add_argument("--seed", type=_nonnegative_int, default=None)
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", help="run a Monte Carlo sweep from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=_nonnegative_int, default=None, help="override base_seed")
    sim.add_argument("--threads", type=int, default=None,
                     help="override worker processes, capped at the CPUs in the affinity mask")
    sim.add_argument(
        "--emit-plot-data", default=None, metavar="PATH",
        help="also write a plotting-oriented CSV to PATH",
    )
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _single_blas_thread():  # every command's output, whatever BLAS threads were set
            return args.func(args)
    except (DPKnockoffError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
