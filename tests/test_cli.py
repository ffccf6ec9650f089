import gzip
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dpknockoff
from dpknockoff import cli, design, pipeline, privacy, simulate
from dpknockoff.cli import main


@pytest.fixture()
def data_files(tmp_path):
    # k >= 5 so the +1 numerator of the threshold can be cleared at q = 0.2
    rng = np.random.default_rng(31)
    n, p, k = 300, 12, 5
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = 4.0
    y = x @ beta + rng.standard_normal(n)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    xp.write_text("\n".join(",".join(f"{v:.16g}" for v in row) for row in x), encoding="utf-8")
    yp.write_text("\n".join(f"{v:.16g}" for v in y), encoding="utf-8")
    return str(xp), str(yp), float(np.linalg.norm(beta))


def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_calibrate_emits_full_record(capsys, data_files):
    xp, yp, bnorm = data_files
    code, out = _run_cli(capsys, [
        "calibrate", "--x", xp, "--y", yp, "--method", "1",
        "--eps", "0.1", "--eps1", "0.05", "--eps2", "0.05",
        "--delta", "0.02", "--delta1", "0.02", "--delta2", "0.02",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "n", "p", "lambda_min", "lambda_max", "s", "g_lambda_max", "g_lambda_min",
        "row_bound_B", "col_min_C", "eta2", "zeta", "gamma", "lambda_min_sens",
        "gram_frob_sens", "delta2_floor", "method1_sensitivity", "method2_sensitivity",
        "theta1_scale", "kappa1_sq", "kappa2_sq_or_kappa_sq", "total_eps", "total_delta",
    ]
    assert (record["n"], record["p"]) == (300, 12)
    assert 0 < record["row_bound_B"] < record["col_min_C"]
    assert record["total_eps"] == pytest.approx(0.2)
    assert record["total_delta"] == pytest.approx(0.06)
    assert record["s"] == pytest.approx(record["lambda_min"])
    assert record["g_lambda_max"] == pytest.approx(
        2 * record["lambda_max"] - record["lambda_min"]
    )


def test_calibrate_method2_totals(capsys, data_files):
    xp, yp, bnorm = data_files
    code, out = _run_cli(capsys, [
        "calibrate", "--x", xp, "--y", yp, "--method", "2",
        "--eps", "0.2", "--delta1", "0.02", "--delta2", "0.02",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["total_eps"] == pytest.approx(0.2)
    assert record["total_delta"] == pytest.approx(0.04)
    assert record["kappa2_sq_or_kappa_sq"] > 0


PAIR_BUDGET = [
    "--eps", "0.1", "--eps1", "0.05", "--eps2", "0.05",
    "--delta", "0.02", "--delta1", "0.02", "--delta2", "0.02",
]
ESTIMATE_BUDGET = ["--eps", "0.2", "--delta1", "0.02", "--delta2", "0.02"]
RUN_SCALE_KEYS = {
    "1": ["theta1_scale", "kappa1_sq", "kappa2_sq", "lambda_min_sensitivity",
          "gram_frobenius_sensitivity", "crossprod_sensitivity", "eps_total", "delta_total"],
    "2": ["kappa_sq", "estimate_sensitivity", "ridge_omega2", "eps_total", "delta_total"],
}


@pytest.mark.parametrize("method, budget, ridge, pairs", [
    ("1", PAIR_BUDGET, "0", {
        "theta1_scale": "theta1_scale",
        "kappa1_sq": "kappa1_sq",
        "kappa2_sq_or_kappa_sq": "kappa2_sq",
        "lambda_min_sens": "lambda_min_sensitivity",
        "gram_frob_sens": "gram_frobenius_sensitivity",
        "method1_sensitivity": "crossprod_sensitivity",
    }),
    ("2", ESTIMATE_BUDGET, "0.5", {
        "kappa2_sq_or_kappa_sq": "kappa_sq",
        "method2_sensitivity": "estimate_sensitivity",
    }),
])
def test_calibrate_agrees_with_run(monkeypatch, capsys, data_files, method, budget, ridge, pairs):
    # neither `run` nor its result holds the noise scales, so the record the
    # filter calibrated is caught where the pipeline builds it
    xp, yp, bnorm = data_files
    common = [
        "--x", xp, "--y", yp, "--method", method, "--ridge", ridge, *budget,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ]
    code_cal, out_cal = _run_cli(capsys, ["calibrate", *common])
    assert code_cal == 0
    built = []
    real = pipeline.build_sensitivity_context
    monkeypatch.setattr(
        pipeline, "build_sensitivity_context", lambda *a, **k: built.append(real(*a, **k)) or built[-1]
    )
    args = cli.build_parser().parse_args(["run", *common, "--seed", "3"])
    result = dpknockoff.run_knockoff_filter(
        dpknockoff.load_dataset(args.x, args.y), q=args.q, stat=args.stat, method=method,
        budget=cli._budget_from_args(args), oracle=cli._oracle_from_args(args),
        ridge_omega2=args.ridge, seed=args.seed,
    )
    (ctx,) = built
    cal, scales = json.loads(out_cal), ctx.noise_scales(method)
    assert list(scales) == RUN_SCALE_KEYS[method]
    for cal_key, run_key in pairs.items():
        assert cal[cal_key] == scales[run_key], cal_key
    assert (cal["total_eps"], cal["total_delta"]) == (scales["eps_total"], scales["delta_total"])
    assert result.release.total_privacy == (cal["total_eps"], cal["total_delta"])


@pytest.mark.parametrize("knobs, theta1, kappa1", [
    ([], False, False),
    (["--eps1", "0.05"], True, False),
    (["--eps2", "0.05"], False, False),
    (["--eps2", "0.05", "--delta", "0.02"], False, True),
    (["--eps1", "0.05", "--eps2", "0.05", "--delta", "0.02"], True, True),
])
def test_calibrate_method2_prints_gram_scales_only_with_their_knobs(
    capsys, data_files, knobs, theta1, kappa1
):
    xp, yp, bnorm = data_files
    code, out = _run_cli(capsys, [
        "calibrate", "--x", xp, "--y", yp, "--method", "2", *ESTIMATE_BUDGET, *knobs,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 0
    record = json.loads(out)
    assert (record["theta1_scale"] is not None) == theta1
    assert (record["kappa1_sq"] is not None) == kappa1
    assert record["lambda_min_sens"] > 0 and record["gram_frob_sens"] > 0


def test_calibrate_method2_failed_precondition_prints_nulls(capsys, data_files):
    # B = 12 against C_min ~ 16 gives eta^2 > 1: no finite estimate calibration
    xp, yp, bnorm = data_files
    code, out = _run_cli(capsys, [
        "calibrate", "--x", xp, "--y", yp, "--method", "2", "--row-bound", "12",
        *ESTIMATE_BUDGET, "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["eta2"] > 1.0
    assert record["method2_sensitivity"] is None
    assert record["kappa2_sq_or_kappa_sq"] is None
    assert record["total_eps"] == pytest.approx(0.2)
    assert record["total_delta"] == pytest.approx(0.04)


def _strict_json(text):
    """The record ``text`` holds; a bare Infinity or NaN, which RFC 8259 JSON lacks, raises."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_records_print_a_non_finite_float_as_its_name(capsys, data_files):
    xp, yp, bnorm = data_files
    data = ["--x", xp, "--y", yp]
    # 12 statistics cannot reach q = 0.01: no threshold exists
    code, out = _run_cli(capsys, ["run", *data, "--q", "0.01"])
    assert code == 0 and _strict_json(out)["threshold"] == "inf"
    # method 2 prints the pair release's facts unchecked: eps_2 = 1e-300 overflows kappa_1^2
    code, out = _run_cli(capsys, [
        "calibrate", *data, "--method", "2", "--eps", "0.2", "--eps1", "0.1", "--eps2", "1e-300",
        "--delta", "0.1", "--delta1", "0.02", "--delta2", "0.02",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    record = _strict_json(out)
    assert code == 0 and record["kappa1_sq"] == "inf" and record["kappa2_sq_or_kappa_sq"] > 0
    # with B just below C_min method 2 has no calibration to check, and
    # ||beta|| <= 1e308 overflows the cross-product sensitivity
    code, out = _run_cli(capsys, [
        "calibrate", *data, "--method", "2", *ESTIMATE_BUDGET,
        "--row-bound", repr(record["col_min_C"] * (1 - 1e-9)),
        "--beta-norm-bound", "1e308", "--sigma2-bound", "1.0",
    ])
    record = _strict_json(out)
    assert code == 0 and record["method1_sensitivity"] == "inf"
    assert record["method2_sensitivity"] is None


def test_calibrate_method2_evaluates_the_estimate_sensitivity_once(
    capsys, data_files, monkeypatch
):
    calls = []
    prop = privacy.SensitivityContext.estimate_sensitivity
    real = prop.func

    def spy(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(prop, "func", spy)
    xp, yp, bnorm = data_files
    code, out = _run_cli(capsys, [
        "calibrate", "--x", xp, "--y", yp, "--method", "2", *ESTIMATE_BUDGET,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 0 and json.loads(out)["method2_sensitivity"] > 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, budget", [
    ("run", ["--method", "1", *PAIR_BUDGET]),
    ("run", ["--method", "2", *ESTIMATE_BUDGET]),
    ("calibrate", ["--method", "1", *PAIR_BUDGET]),
    ("calibrate", ["--method", "2", *ESTIMATE_BUDGET]),
])
def test_row_bound_below_the_data_is_cli_error(capsys, data_files, command, budget):
    # the fixture's largest row norm is above 1, so B = 1 would under-calibrate
    xp, yp, bnorm = data_files
    code = main([
        command, "--x", xp, "--y", yp, *budget, "--row-bound", "1",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: row bound B=1.0 is below the observed maximum row norm; "
        "the calibration must cover every row\n"
    )
    # the observed norm is one individual's row norm: stderr does not carry it
    x = np.loadtxt(xp, delimiter=",")
    row_max = float(np.sqrt(np.einsum("ij,ij->i", x, x).max()))
    assert repr(row_max) not in captured.err


@pytest.mark.parametrize("extra", [
    ["--method", "2", *ESTIMATE_BUDGET, "--beta-norm-bound", "1", "--sigma2-bound", "1",
     "--lambda", "0.5"],
    ["--method", "none", "--lambda", "0.5", "--ridge", "0.5"],
])
def test_run_refuses_ignored_knobs(capsys, data_files, extra):
    xp, yp, _ = data_files
    code = main(["run", "--x", xp, "--y", yp, *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_nonprivate(capsys, data_files):
    xp, yp, _ = data_files
    code, out = _run_cli(capsys, [
        "run", "--x", xp, "--y", yp, "--method", "none", "--stat", "csm", "--q", "0.2",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "none"
    assert len(record["statistics"]) == 12
    assert record["total_privacy"] == {"eps": 0.0, "delta": 0.0}
    assert set(record["selected"]) >= {0, 1, 2, 3, 4}


def test_run_private_deterministic(capsys, data_files):
    xp, yp, bnorm = data_files
    argv = [
        "run", "--x", xp, "--y", yp, "--method", "2", "--stat", "lcd",
        "--q", "0.2", "--eps", "0.2", "--delta1", "0.02", "--delta2", "0.02",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0", "--seed", "5",
    ]
    code1, out1 = _run_cli(capsys, argv)
    code2, out2 = _run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["total_privacy"]["eps"] == pytest.approx(0.2)


@pytest.mark.parametrize("method, budget", [("none", []), ("1", PAIR_BUDGET), ("2", ESTIMATE_BUDGET)])
def test_run_prints_only_the_public_release(capsys, data_files, method, budget):
    # the noise scales are functions of B, C_min and lambda_min(S'): never printed
    xp, yp, bnorm = data_files
    private = ["--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0", "--seed", "3"]
    code, out = _run_cli(capsys, [
        "run", "--x", xp, "--y", yp, "--method", method, *budget,
        *(private if method != "none" else []),
    ])
    assert code == 0
    assert list(json.loads(out)) == [
        "selected", "threshold", "statistics", "statistic_kind", "q", "method", "total_privacy",
    ]


def test_run_missing_bounds_is_cli_error(capsys, data_files):
    xp, yp, _ = data_files
    code = main([
        "run", "--x", xp, "--y", yp, "--method", "2", "--q", "0.2",
        "--eps", "0.2", "--delta1", "0.02", "--delta2", "0.02",
    ])
    assert code == 2
    assert "beta-norm-bound" in capsys.readouterr().err


def test_run_missing_budget_is_cli_error(capsys, data_files):
    xp, yp, bnorm = data_files
    code = main([
        "run", "--x", xp, "--y", yp, "--method", "2", "--q", "0.2",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 2
    assert "required" in capsys.readouterr().err


# the flags only a private run reads, each with a valid value; --method none refuses every one
NONE_IGNORES = [(f"--{name}", "0.1") for name in ("eps", "delta1", "delta2", "eps1", "eps2", "delta")]
NONE_IGNORES += [("--beta-norm-bound", "1"), ("--sigma2-bound", "1"), ("--row-bound", "10"),
                 ("--seed", "3")]


@pytest.mark.parametrize("argv, message", [
    (["run", "--method", "1"], "eps is required for every release"),
    (["run", "--q", "1.5"], "target FDR q must lie in (0,1), got 1.5"),
    (["calibrate", "--method", "1"], "eps is required for every release"),
    (["run", "--method", "1", *PAIR_BUDGET],
     "--beta-norm-bound and --sigma2-bound are required here"),
    (["calibrate", *ESTIMATE_BUDGET, "--beta-norm-bound", "1", "--sigma2-bound", "1"],
     "pair release needs eps, eps_1, eps_2, delta, delta_1, delta_2; missing eps_1, eps_2, delta"),
    (["run", "--method", "2", *ESTIMATE_BUDGET, "--beta-norm-bound", "1", "--sigma2-bound", "1",
      "--lambda", "0.5"],
     "method 2 releases the ridge/OLS estimate; a lasso penalty does not apply"),
    (["run", "--lambda", "0.5", "--ridge", "0.5"],
     "the lasso path takes no ridge term; set either lam or ridge_omega2, not both"),
    *[(["run", flag, value],
       f"{flag} is ignored under --method none; choose --method 1 or 2 for a private run")
      for flag, value in NONE_IGNORES],
], ids=["run_without_budget", "run_q", "calibrate_without_eps", "run_without_oracle",
        "calibrate_with_a_part_budget", "run_method2_lasso", "run_lasso_with_ridge",
        *[f"run_none_with_{flag[2:]}" for flag, _ in NONE_IGNORES]])
def test_an_argument_error_comes_before_any_file_error(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.csv")
    assert main([*argv, "--x", missing, "--y", missing]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--lambda", "-1"),
    ("run", "--lambda", "nan"),
    ("run", "--ridge", "-0.5"),
    ("run", "--beta-norm-bound", "-1"),
    ("run", "--sigma2-bound", "0"),
    ("calibrate", "--ridge", "-1"),
    ("calibrate", "--beta-norm-bound", "-1"),
    ("calibrate", "--sigma2-bound", "-2"),
    ("run", "--lambda", "inf"),
    ("run", "--ridge", "inf"),
    ("run", "--beta-norm-bound", "inf"),
    ("run", "--sigma2-bound", "inf"),
    ("calibrate", "--sigma2-bound", "Infinity"),
    ("calibrate", "--ridge", "inf"),
    ("calibrate", "--beta-norm-bound", "inf"),
    ("run", "--seed", "-1"),
    *[
        (command, "--row-bound", value)
        for command in ("run", "calibrate")
        for value in ("nan", "inf", "-inf", "0", "-1")
    ],
])
def test_out_of_range_knob_is_usage_error(capsys, data_files, command, flag, value):
    xp, yp, _ = data_files
    with pytest.raises(SystemExit) as info:
        main([command, "--x", xp, "--y", yp, f"{flag}={value}"])
    assert info.value.code == 2
    assert f"error: argument {flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("command, method", [("run", "1"), ("run", "2"), ("calibrate", "2")])
def test_eps2_at_or_above_one_is_cli_error(capsys, data_files, command, method):
    # eps_2 is the Gaussian mechanism's epsilon, refused wherever it is given
    xp, yp, bnorm = data_files
    code = main([
        command, "--x", xp, "--y", yp, "--method", method,
        *(PAIR_BUDGET if method == "1" else ESTIMATE_BUDGET), "--eps2", "1.5",
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert (code, capsys.readouterr().err) == (2, "error: eps_2 must lie in (0,1), got 1.5\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--eps1", "inf", "eps_1 must be finite, got inf"),
    ("--eps1", "nan", "eps_1 must be strictly positive, got nan"),
    ("--eps2", "inf", "eps_2 must be finite, got inf"),
])
def test_non_finite_epsilon_is_cli_error(capsys, data_files, flag, value, message):
    xp, yp, bnorm = data_files
    code = main([
        "run", "--x", xp, "--y", yp, "--method", "1", *PAIR_BUDGET, flag, value,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method, budget, scale", [
    ("1", PAIR_BUDGET, "kappa2_sq"),
    ("2", ESTIMATE_BUDGET, "kappa_sq"),
])
def test_overflowing_norm_bound_names_the_scale(capsys, data_files, method, budget, scale):
    # ||beta|| <= 1e308 calibrates an infinite variance: refused, not drawn
    xp, yp, _ = data_files
    code = main([
        "run", "--x", xp, "--y", yp, "--method", method, *budget,
        "--beta-norm-bound", "1e308", "--sigma2-bound", "1.0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: calibration gives {scale}=inf;") and err.count("\n") == 1


def test_overflowing_design_is_cli_error(tmp_path, capsys):
    x = np.random.default_rng(3).standard_normal((200, 5))
    x[:, 1] *= 1e160
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, x, delimiter=",")
    np.savetxt(yp, np.ones(200))
    assert main(["run", "--x", str(xp), "--y", str(yp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err


@pytest.mark.filterwarnings("error")
def test_overflowing_response_is_cli_error(tmp_path, capsys):
    x = np.random.default_rng(4).standard_normal((5000, 20))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, x, delimiter=",")
    np.savetxt(yp, (x[:, 0] + 1.0) * 1e306)
    assert main(["run", "--x", str(xp), "--y", str(yp)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: products with the response overflow double precision; rescale the response y\n"
    )


def test_run_loads_no_scipy(data_files):
    # the package factors and solves on numpy's LAPACK; scipy must stay unloaded,
    # and so must numpy.ma, whose lazy import (via np.unique) slowed the first threshold
    xp, yp, bnorm = data_files
    argv = ["run", "--x", xp, "--y", yp, "--method", "2", *ESTIMATE_BUDGET,
            "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0", "--seed", "1"]
    # numpy.random is drawn in per call: imported with the package, it added 6 MB of
    # RSS and moved a sweep of small trials into more page faults per trial
    script = (
        "import json, sys\n"
        "import dpknockoff, dpknockoff.cli\n"
        "random = 'numpy.random' in sys.modules\n"
        f"code = dpknockoff.cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "ma = 'numpy.ma' in sys.modules\n"
        "sys.stderr.write(json.dumps({'code': code, 'scipy': loaded, 'numpy.ma': ma,\n"
        "                            'numpy.random at import': random}))\n"
    )
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {
        "code": 0, "scipy": [], "numpy.ma": False, "numpy.random at import": False,
    }
    assert len(json.loads(proc.stdout)["statistics"]) == 12


def test_simulate_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 400\np = 12\nk = 3\namplitude = 3.5\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 5\nmethod = 2\nstat = csm\neps = 0.3\nbase_seed = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    plot = tmp_path / "plot.csv"
    code = main([
        "simulate", "--config", str(cfg), "--out", str(out),
        "--threads", "2", "--emit-plot-data", str(plot),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("400,2,csm,5,")
    assert plot.exists()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    # parameters chosen so the realized FDP genuinely varies with the seed
    cfg.write_text(
        "n_grid = 400\np = 12\nk = 6\namplitude = 1.0\nsigma2 = 1.0\n"
        "q = 0.3\ntrials = 8\nmethod = none\nbase_seed = 1\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert out1.read_text() != out2.read_text()


def test_simulate_negative_seed_is_usage_error(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 40\np = 4\nk = 1\namplitude = 1.0\nsigma2 = 1.0\nq = 0.2\ntrials = 2\n",
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dpknockoff", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "r.csv"), "--seed", "-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "error: argument --seed: must be nonnegative, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.csv").exists()


def test_simulate_abort_is_cli_error(tmp_path, capsys):
    # ||beta|| overflows on every draw, so every trial fails its privacy precondition
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200\np = 10\nk = 3\namplitude = 1e200\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 4\nmethod = 2\neps = 0.3\nbase_seed = 7\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed their privacy precondition" in err


@pytest.mark.parametrize("budget, message", [
    ("method = 2\neps = 1.5\n", "eps must lie in (0,1), got 1.5"),
    ("method = 1\neps = 0.3\neps1 = inf\neps2 = 0.1\n", "eps_1 must be finite, got inf"),
    ("method = 1\neps = 0.3\neps1 = 0.1\neps2 = 1.5\n", "eps_2 must lie in (0,1), got 1.5"),
    ("method = 1\neps = 0.3\neps1 = 0.1\neps2 = 0.1\ndelta_rule = fixed\ndelta_value = 0.03\n",
     "at n=200, delta_2=0.01 must exceed 2*exp(-p/2)=1.348e-02"),
], ids=["eps", "eps_1", "eps_2", "delta_2"])
def test_simulate_refuses_a_budget_every_trial_would_refuse(tmp_path, capsys, budget, message):
    # refused with the config, before either report file is opened
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200, 400\np = 10\nk = 3\namplitude = 3.5\nsigma2 = 1.0\nq = 0.2\ntrials = 4\n"
        + budget,
        encoding="utf-8",
    )
    with pytest.raises(dpknockoff.ConfigInvalid) as refused:
        simulate.read_config(cfg)
    assert str(refused.value) == message
    out, plot = tmp_path / "report.csv", tmp_path / "plot.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--emit-plot-data", str(plot)])
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not plot.exists()


@pytest.mark.parametrize("knob, value, message", [
    ("sigma2", "nan", "sigma2 must be positive and finite, got nan"),
    ("amplitude", "inf", "amplitude must be nonnegative and finite, got inf"),
    ("pessimism", "nan", "pessimism factor must be finite and >= 1, got nan"),
])
def test_simulate_refuses_a_non_finite_knob(tmp_path, capsys, knob, value, message):
    # refused with the config, before either report file is opened
    knobs = {"amplitude": "3.5", "sigma2": "1.0", knob: value}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200\np = 10\nk = 3\nq = 0.2\ntrials = 4\n"
        + "".join(f"{k} = {v}\n" for k, v in knobs.items()),
        encoding="utf-8",
    )
    out, plot = tmp_path / "report.csv", tmp_path / "plot.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--emit-plot-data", str(plot)])
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not plot.exists()


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_simulate_refuses_one_file_for_both_outputs(tmp_path, capsys, existing):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200\np = 10\nk = 3\namplitude = 3.5\nsigma2 = 1.0\nq = 0.2\ntrials = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    if existing:
        out.write_bytes(b"kept\n")
    for plot in (out, tmp_path / "." / "out.csv"):
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--emit-plot-data", str(plot)])
        assert (code, capsys.readouterr().err) == (
            2, f"error: the report and the plot data would both go to {plot}\n")
    assert out.read_bytes() == b"kept\n" if existing else not out.exists()


def test_simulate_abort_keeps_finished_rows(tmp_path, capsys):
    # X^T y grows as n * amplitude: 4e307 at n=400, but it overflows at n=4000,
    # so the second cell aborts after the first has finished
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 400, 4000\np = 12\nk = 3\namplitude = 1e305\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 5\nstat = csm\nbase_seed = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    plot = tmp_path / "plot.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--emit-plot-data", str(plot)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at n=4000" in err
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,method,stat,trials,")
    assert len(lines) == 2 and lines[1].startswith("400,none,csm,5,")
    assert len(plot.read_text().strip().split("\n")) == 2


def test_simulate_keeps_finished_rows_on_any_package_error(tmp_path, capsys):
    # at n=20000, X^T y overflows in every trial (InvalidDesign, not a privacy
    # failure); the n=200 cell has finished by then and its row must be kept
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200, 20000\np = 10\nk = 3\namplitude = 1e304\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 3\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at n=20000" in err and "InvalidDesign" in err
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("200,none,lcd,3,")


@pytest.mark.parametrize("failing_n", [400, 800])
@pytest.mark.parametrize("error", [
    RuntimeError("not a package error"),
    ChildProcessError("a sweep worker at n=800 ended before it sent its trials"),
])
def test_simulate_keeps_finished_cells_on_any_failure(tmp_path, capsys, monkeypatch, error, failing_n):
    config = "p = 12\nk = 3\namplitude = 3.5\nsigma2 = 1.0\nq = 0.2\ntrials = 3\nbase_seed = 1\n"
    for name, grid in (("one", "400"), ("two", "400, 800")):
        (tmp_path / f"{name}.cfg").write_text(f"n_grid = {grid}\n" + config, encoding="utf-8")

    def simulate_argv(name):
        return ["simulate", "--config", str(tmp_path / f"{name}.cfg"), "--out",
                str(tmp_path / f"{name}.csv"), "--emit-plot-data", str(tmp_path / f"{name}_plot.csv")]

    assert main(simulate_argv("one")) == 0
    real = simulate._cell_outcomes

    def cell_outcomes(cfg, n, n_idx):
        if n == failing_n:
            raise error
        return real(cfg, n, n_idx)

    monkeypatch.setattr(simulate, "_cell_outcomes", cell_outcomes)
    if isinstance(error, OSError):  # a killed sweep worker: an error line, exit 2
        assert main(simulate_argv("two")) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
    else:
        with pytest.raises(RuntimeError, match="not a package error"):
            main(simulate_argv("two"))
    for suffix in (".csv", "_plot.csv"):
        finished = (tmp_path / f"one{suffix}").read_bytes()
        if failing_n == 400:  # no cell finished: the header line alone
            finished = finished[: finished.index(b"\n") + 1]
        assert (tmp_path / f"two{suffix}").read_bytes() == finished


def test_simulate_zero_amplitude_runs_the_global_null(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200, 400\np = 10\nk = 3\namplitude = 0\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 4\nbase_seed = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["n"] for row in rows] == ["200", "400"]
    assert all(row["power_hat"] == "0" and row["failures"] == "0" for row in rows)


@pytest.mark.parametrize("kind", ["x", "y", "config", "out"])
def test_file_errors_are_cli_errors(tmp_path, capsys, data_files, kind):
    # a missing input or an unwritable output exits 2 with one error line
    xp, yp, _ = data_files
    missing = str(tmp_path / "nope.csv")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 200\np = 10\nk = 3\namplitude = 3\nsigma2 = 1\nq = 0.2\ntrials = 2\n",
        encoding="utf-8",
    )
    argv = {
        "x": ["run", "--x", missing, "--y", yp],
        "y": ["run", "--x", xp, "--y", missing],
        "config": ["simulate", "--config", missing, "--out", str(tmp_path / "r.csv")],
        "out": ["simulate", "--config", str(cfg), "--out", str(tmp_path / "no_dir" / "r.csv")],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert ("r.csv" if kind == "out" else "nope.csv") in err


@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_response_with_several_values_per_line_is_cli_error(tmp_path, capsys, command):
    rng = np.random.default_rng(8)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, rng.standard_normal((30, 3)), delimiter=",")
    np.savetxt(yp, rng.standard_normal((15, 2)))
    argv = [command, "--x", str(xp), "--y", str(yp), "--method", "1", *PAIR_BUDGET,
            "--beta-norm-bound", "1", "--sigma2-bound", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: response file {yp} has 2 values per line; expected one\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "calibrate"])
@pytest.mark.parametrize("empty", ["x", "y"])
def test_empty_input_file_is_cli_error_naming_it(tmp_path, capsys, data_files, command, empty):
    # numpy's "input contained no data" warning must not reach stderr, and the
    # error names the empty file rather than blaming the other one
    xp, yp, _ = data_files
    blank = tmp_path / "empty.csv"
    blank.write_text("", encoding="utf-8")
    xp, yp = (str(blank), yp) if empty == "x" else (xp, str(blank))
    argv = [command, "--x", xp, "--y", yp, "--method", "1", *PAIR_BUDGET,
            "--beta-norm-bound", "1", "--sigma2-bound", "1"]
    assert main(argv) == 2
    kind = "design" if empty == "x" else "response"
    assert capsys.readouterr().err == f"error: {kind} file {blank} contains no data\n"


def test_run_subprocess_writes_nothing_to_stderr(data_files):
    # the design is parsed in forked children under the default BLAS threads;
    # -X dev and -W error turn any warning, unclosed descriptor included, into output
    xp, yp, _ = data_files
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    argv = ["-X", "dev", "-W", "error", "-m", "dpknockoff", "run", "--x", xp, "--y", yp]
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)["statistics"]) == 12


def test_run_subprocess_refuses_a_short_wide_design_with_one_line(tmp_path):
    # 6 x 3000 with a 6-line response: refused by its shape before any p x p sum
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    rng = np.random.default_rng(32)
    np.savetxt(xp, rng.standard_normal((6, 3000)), delimiter=",", fmt="%.9g")
    np.savetxt(yp, rng.standard_normal(6), fmt="%.9g")
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["-X", "dev", "-W", "error", "-m", "dpknockoff", "run", "--x", str(xp), "--y", str(yp)]
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: n=6 < 2p=6000: a knockoff copy needs at least twice as many samples as features\n"
    )


@pytest.mark.parametrize("command, budget", [
    ("run", ["--method", "2", *ESTIMATE_BUDGET]),
    ("calibrate", ["--method", "1", *PAIR_BUDGET]),
])
def test_run_and_calibrate_pin_blas_to_one_thread(capsys, data_files, monkeypatch, command, budget):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, whose thread controls the CLI does not look up")
    controls = design._blas_thread_controls()
    assert controls, "numpy's scipy-openblas thread controls were not found"
    get, set_ = controls
    seen = []
    real = design._design_sums
    monkeypatch.setattr(design, "_design_sums", lambda *a: seen.append(get()) or real(*a))
    xp, yp, bnorm = data_files
    before = get()
    set_(2)  # so the pin shows on a one-core host too
    try:
        code = main([command, "--x", xp, "--y", yp, *budget,
                     "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0"])
        assert code == 0 and seen == [1]
        assert get() == 2
    finally:
        set_(before)
    capsys.readouterr()


def test_calibrate_draws_no_probe(capsys, data_files, monkeypatch):
    draws = []
    cached, generator = design._default_probe, design._probe_generator
    monkeypatch.setattr(design, "_default_probe", lambda *a: draws.append(a) or cached(*a))
    monkeypatch.setattr(design, "_probe_generator", lambda *a: draws.append(a) or generator(*a))
    xp, yp, bnorm = data_files
    with open(xp, "rb") as f, gzip.open(xp + ".gz", "wb") as g:
        g.write(f.read())
    # a plain file and a .gz file are summed alike, with the probe rows drawn
    # alongside the design's; the probe cache, emptied first, is never asked
    for x in (xp, xp + ".gz"):
        draws.clear()
        cached.cache_clear()
        argv = ["--x", x, "--y", yp, "--method", "1", *PAIR_BUDGET,
                "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0"]
        assert main(["calibrate", *argv]) == 0 and draws == []
        assert main(["run", *argv]) == 0 and draws == [()]  # the spies do see a draw
    capsys.readouterr()


@pytest.mark.parametrize("n", [3000, 500])
def test_every_design_input_prints_the_plain_files_bytes(
    tmp_path, capsys, compressed_copies, fifo_of, n
):
    # compressed copies and a pipe give the plain file's record bit for bit,
    # in blocks of 1024 rows above n = 1024 too, so every output is the same
    rng = np.random.default_rng(34)
    x = rng.standard_normal((n, 20))
    y = x[:, :5] @ np.full(5, 0.5) + rng.standard_normal(n)
    xp, yp = tmp_path / "x.csv", str(tmp_path / "y.csv")
    np.savetxt(xp, x, delimiter=",", fmt="%.17g")
    np.savetxt(yp, y, fmt="%.17g")
    designs = [str(xp), *compressed_copies(xp)]
    bounds = ["--beta-norm-bound", f"{np.sqrt(5) * 0.5}", "--sigma2-bound", "1.0"]
    for argv in (
        ["run"],
        ["run", "--method", "2", "--seed", "7", *ESTIMATE_BUDGET, *bounds],
        ["calibrate", "--method", "1", *PAIR_BUDGET, *bounds],
    ):
        outputs = []
        for design_path in (*designs, fifo_of(xp)):
            assert main([*argv, "--x", design_path, "--y", yp]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == outputs[:1] * len(outputs), argv

