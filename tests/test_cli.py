import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dpknockoff
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
    for key in (
        "lambda_min", "lambda_max", "s", "g_lambda_max", "g_lambda_min",
        "eta2", "zeta", "gamma", "lambda_min_sens", "gram_frob_sens",
        "delta2_floor", "method1_sensitivity", "method2_sensitivity",
        "theta1_scale", "kappa1_sq", "kappa2_sq_or_kappa_sq",
        "total_eps", "total_delta",
    ):
        assert key in record, key
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
def test_calibrate_agrees_with_run(capsys, data_files, method, budget, ridge, pairs):
    xp, yp, bnorm = data_files
    common = [
        "--x", xp, "--y", yp, "--method", method, "--ridge", ridge, *budget,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ]
    code_cal, out_cal = _run_cli(capsys, ["calibrate", *common])
    code_run, out_run = _run_cli(capsys, ["run", *common, "--seed", "3"])
    assert code_cal == code_run == 0
    cal, scales = json.loads(out_cal), json.loads(out_run)["noise_scales"]
    for cal_key, run_key in pairs.items():
        assert cal[cal_key] == scales[run_key], cal_key
    assert (cal["total_eps"], cal["total_delta"]) == (scales["eps_total"], scales["delta_total"])


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


@pytest.mark.parametrize("extra", [
    ["--method", "2", *ESTIMATE_BUDGET, "--lambda", "0.5"],
    ["--method", "none", "--lambda", "0.5", "--ridge", "0.5"],
])
def test_run_refuses_ignored_knobs(capsys, data_files, extra):
    xp, yp, bnorm = data_files
    code = main([
        "run", "--x", xp, "--y", yp, *extra,
        "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0",
    ])
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
    assert record["noise_scales"]["kappa_sq"] > 0


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
])
def test_out_of_range_knob_is_usage_error(capsys, data_files, command, flag, value):
    xp, yp, _ = data_files
    with pytest.raises(SystemExit) as info:
        main([command, "--x", xp, "--y", yp, flag, value])
    assert info.value.code == 2
    assert f"error: argument {flag}: must be" in capsys.readouterr().err


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
    # the package factors and solves on numpy's LAPACK; scipy must stay unloaded
    xp, yp, bnorm = data_files
    argv = ["run", "--x", xp, "--y", yp, "--method", "2", *ESTIMATE_BUDGET,
            "--beta-norm-bound", f"{bnorm}", "--sigma2-bound", "1.0", "--seed", "1"]
    script = (
        "import json, sys\n"
        "import dpknockoff, dpknockoff.cli\n"
        f"code = dpknockoff.cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "sys.stderr.write(json.dumps({'code': code, 'scipy': loaded}))\n"
    )
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {"code": 0, "scipy": []}
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


def test_simulate_abort_is_cli_error(tmp_path, capsys):
    # p=5 with the 2p/n rule puts delta_2 below its floor on every trial
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 400\np = 5\nk = 2\namplitude = 3.0\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 4\nmethod = 2\neps = 0.3\nbase_seed = 7\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "failed their privacy precondition" in err


def test_simulate_abort_keeps_finished_rows(tmp_path, capsys):
    # with the 2p/n rule, p=12 clears the delta_2 floor at n=400 but not at
    # n=4000, so the second cell aborts after the first has finished
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_grid = 400, 4000\np = 12\nk = 3\namplitude = 3.5\nsigma2 = 1.0\n"
        "q = 0.2\ntrials = 5\nmethod = 2\nstat = csm\neps = 0.3\nbase_seed = 1\n",
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
    assert len(lines) == 2 and lines[1].startswith("400,2,csm,5,")
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
