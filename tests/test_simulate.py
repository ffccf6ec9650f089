import dataclasses
import math
import os
import signal

import numpy as np
import pytest

from dpknockoff import (
    ConfigInvalid,
    PrivacyPreconditionFailed,
    SimConfig,
    SingularSystem,
    SweepAborted,
    read_config,
    run_knockoff_filter,
    run_sweep,
    write_report,
)
from dpknockoff import design, simulate
from dpknockoff.simulate import SimRow, budget_for, budget_totals, generate_trial


def _cfg(**overrides):
    base = dict(
        n_grid=(400,),
        p=5,
        k=2,
        amplitude=3.0,
        sigma2=1.0,
        q=0.2,
        trials=8,
        method="none",
        stat="lcd",
        base_seed=7,
        threads=1,
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigInvalid):
        _cfg(n_grid=())
    with pytest.raises(ConfigInvalid):
        _cfg(k=9)  # k > p
    with pytest.raises(ConfigInvalid, match="need p >= 1"):
        _cfg(p=0, k=0)  # no features: the filter has nothing to select from
    with pytest.raises(ConfigInvalid):
        _cfg(n_grid=(9,))  # n < 2p
    with pytest.raises(ConfigInvalid):
        _cfg(q=1.2)
    with pytest.raises(ConfigInvalid):
        _cfg(trials=0)
    with pytest.raises(ConfigInvalid):
        _cfg(method="3")
    with pytest.raises(ConfigInvalid):
        _cfg(stat="zmax")
    with pytest.raises(ConfigInvalid):
        _cfg(method="1")  # missing eps split
    with pytest.raises(ConfigInvalid):
        _cfg(method="2", delta_rule="fixed")  # missing delta_value
    for method in ("none", "2"):  # two_p_over_n would spend 2p/n = 0.025 instead
        with pytest.raises(ConfigInvalid, match="^delta_value is ignored under delta_rule = "
                                                "two_p_over_n; set delta_rule = fixed to use it$"):
            _cfg(method=method, eps=0.2, delta_value=0.5)
    with pytest.raises(ConfigInvalid, match="^delta_rule must be one of"):
        _cfg(delta_rule="three_p_over_n")
    with pytest.raises(ConfigInvalid, match="^threads must be at least 1$"):
        _cfg(threads=0)
    with pytest.raises(ConfigInvalid):
        _cfg(pessimism=0.5)
    for knob in ("sigma2", "amplitude", "pessimism"):
        for value in (math.nan, math.inf):  # each would fail or skew every trial
            with pytest.raises(ConfigInvalid, match=knob):
                _cfg(**{knob: value})
    with pytest.raises(ConfigInvalid, match="base_seed"):
        _cfg(base_seed=-4)  # SeedSequence takes nonnegative entropy only


def test_config_takes_integral_counts_as_ints():
    cfg = _cfg(n_grid=(1e3, 400.0), p=5.0, k=np.int64(2), trials=2.0, threads=1.0, base_seed=7.0)
    assert cfg.n_grid == (1000, 400)
    counts = (*cfg.n_grid, cfg.p, cfg.k, cfg.trials, cfg.threads, cfg.base_seed)
    assert all(type(c) is int for c in counts)
    assert [row.trials for row in run_sweep(cfg)] == [2, 2]


@pytest.mark.parametrize("name, value", [
    ("n_grid", (400.7,)), ("n_grid", (400, math.nan)), ("p", 10.5), ("k", math.nan),
    ("trials", 2.5), ("trials", math.inf), ("threads", 1.5), ("base_seed", 1.5),
])
def test_config_refuses_a_non_integral_count(name, value):
    # each was cut to an int, or passed construction and failed in the sweep
    with pytest.raises(ConfigInvalid, match=f"^{name} must be a whole number"):
        _cfg(**{name: value})


def test_write_report_refuses_one_file_for_both_outputs(tmp_path):
    # refused before either file is opened or a row is asked for
    out = tmp_path / "out.csv"
    out.write_bytes(b"kept\n")

    def rows():
        raise AssertionError("a row was asked for")
        yield

    os.link(out, tmp_path / "link.csv")
    for plot in (out, tmp_path / "." / "out.csv", tmp_path / "link.csv"):
        with pytest.raises(ConfigInvalid, match="both go to"):
            write_report(rows(), out, plot)
    assert out.read_bytes() == b"kept\n"


def test_budget_split_rules():
    # p = 20: at p = 5 no n >= 2p clears the delta_2 floor 2*exp(-p/2) under 2p/n
    cfg1 = _cfg(method="1", p=20, eps=0.1, eps_1=0.05, eps_2=0.05)
    b1 = budget_for(cfg1, 400)
    d = 2.0 * 20 / 400 / 3.0
    assert b1.delta == pytest.approx(d) and b1.delta_1 == pytest.approx(d)
    assert b1.delta_2 == pytest.approx(d)
    assert budget_totals(cfg1, 400) == (pytest.approx(0.2), pytest.approx(2.0 * 20 / 400))

    cfg2 = _cfg(method="2", p=20, eps=0.2)
    b2 = budget_for(cfg2, 400)
    assert b2.delta_1 == pytest.approx(2.0 * 20 / 400 / 2.0)
    assert budget_totals(cfg2, 400) == (pytest.approx(0.2), pytest.approx(2.0 * 20 / 400))

    cfg0 = _cfg(method="none")
    assert budget_for(cfg0, 400) is None
    assert budget_totals(cfg0, 400) == (0.0, 0.0)

    cfg_fixed = _cfg(method="2", eps=0.2, delta_rule="fixed", delta_value=0.4)
    assert budget_for(cfg_fixed, 400).delta_1 == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Trial generation
# ---------------------------------------------------------------------------


def test_generate_trial_ground_truth():
    cfg = _cfg(k=2, amplitude=4.5)
    ds, oracle = generate_trial(400, cfg, trial_seed=3)
    assert ds.n == 400 and ds.p == 5
    assert oracle.true_support == frozenset({0, 1})
    assert oracle.beta_norm_bound == pytest.approx(4.5 * math.sqrt(2.0))
    assert oracle.sigma2_bound == pytest.approx(1.0)
    assert np.allclose(oracle.true_beta[:2], 4.5) and np.all(oracle.true_beta[2:] == 0)


def test_generate_trial_null_model():
    cfg = _cfg(k=0, amplitude=4.5)
    _, oracle = generate_trial(400, cfg, trial_seed=3)
    assert oracle.true_support == frozenset()
    assert oracle.beta_norm_bound == 0.0


def test_generate_trial_deterministic():
    cfg = _cfg()
    d1, _ = generate_trial(400, cfg, trial_seed=11)
    d2, _ = generate_trial(400, cfg, trial_seed=11)
    d3, _ = generate_trial(400, cfg, trial_seed=12)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    assert not np.array_equal(d1.x, d3.x)


def test_generate_trial_pessimism_inflates_bounds():
    cfg = _cfg(pessimism=2.0)
    _, oracle = generate_trial(400, cfg, trial_seed=3)
    assert oracle.sigma2_bound == pytest.approx(2.0)
    assert oracle.beta_norm_bound == pytest.approx(2.0 * 3.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------


def test_run_sweep_nonprivate_report_fields():
    rows = run_sweep(_cfg(trials=6))
    assert isinstance(rows, tuple) and len(rows) == 1
    row = rows[0]
    assert row.n == 400 and row.method == "none" and row.trials == 6
    assert 0.0 <= row.fdr_hat <= 1.0 and 0.0 <= row.power_hat <= 1.0
    assert row.failures == 0
    assert row.eps_total == 0.0 and row.delta_total == 0.0


def test_run_sweep_private_methods_run():
    # p must be large enough that delta_2 = 2p/(3n) clears the 2*exp(-p/2) floor
    r1 = run_sweep(_cfg(method="1", p=12, k=3, eps=0.3, eps_1=0.2, eps_2=0.2, trials=4))
    assert r1[0].eps_total == pytest.approx(0.7)
    assert r1[0].delta_total == pytest.approx(2.0 * 12 / 400)
    r2 = run_sweep(_cfg(method="2", p=12, k=3, eps=0.3, trials=4))
    assert r2[0].eps_total == pytest.approx(0.3)


def test_run_sweep_aborts_on_systematic_failures():
    # ||beta|| overflows on every draw, so each trial fails its privacy
    # precondition and the failure rate crosses the abort threshold at once
    cfg = _cfg(n_grid=(200,), p=10, k=3, amplitude=1e200, method="2", eps=0.3, trials=4)
    with pytest.raises(SweepAborted, match="failed their privacy precondition") as info:
        run_sweep(cfg)
    assert info.value.rows == ()


@pytest.mark.parametrize("method, delta_2", [("1", "0.00666667"), ("2", "0.01")])
def test_config_refuses_delta2_at_or_below_its_floor(method, delta_2):
    # delta_2 = 2p/(3n) or p/n depends only on (cfg, n): at p=10, n=1000 it is
    # below the floor 2*exp(-5) = 0.0135, where every trial would raise
    # DeltaTooSmall, so the config is refused naming n, delta_2 and the floor
    with pytest.raises(ConfigInvalid) as refused:
        _cfg(n_grid=(200, 1000), p=10, k=3, method=method, eps=0.3, eps_1=0.2, eps_2=0.2)
    assert str(refused.value) == f"at n=1000, delta_2={delta_2} must exceed 2*exp(-p/2)=1.348e-02"
    # the floor is exclusive, as the calibration's own check is
    at_floor = 2.0 * math.exp(-5.0)
    with pytest.raises(ConfigInvalid, match="must exceed 2"):
        _cfg(p=10, method="2", eps=0.3, delta_rule="fixed", delta_value=2.0 * at_floor)
    cfg = _cfg(p=10, method="2", eps=0.3, delta_rule="fixed", delta_value=2.0 * at_floor * 1.01)
    assert budget_for(cfg, 400).delta_2 > at_floor


@pytest.mark.filterwarnings("error")
def test_overflowing_beta_norm_is_a_privacy_failure():
    # ||beta|| = sqrt(3) * 1e200 overflows to inf without a warning, and the
    # calibration refuses the infinite scale, so every trial fails its precondition
    cfg = _cfg(n_grid=(200,), p=10, k=3, amplitude=1e200, method="2", eps=0.5, trials=3)
    dataset, oracle = generate_trial(200, cfg, 0)
    assert oracle.beta_norm_bound == math.inf
    with pytest.raises(PrivacyPreconditionFailed, match="kappa_sq=inf"):
        run_knockoff_filter(
            dataset, q=cfg.q, method="2", budget=budget_for(cfg, 200), oracle=oracle
        )
    with pytest.raises(SweepAborted, match="privacy precondition"):
        run_sweep(cfg)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _trial_index(kwargs):
    """The trial index run_sweep seeds a trial's release with."""
    return kwargs["seed"].spawn_key[1]


def test_run_sweep_wraps_any_package_error(monkeypatch):
    # a non-privacy error in a trial aborts with the finished rows, chained from it;
    # it fails only the odd trials, which forked workers run, and every CPU count
    # names the lowest failing trial, as the serial loop does
    real = simulate.run_knockoff_filter

    def failing(dataset, **kwargs):
        t = _trial_index(kwargs)
        if dataset.n == 600 and t % 2:
            raise SingularSystem(f"boom at trial {t}")
        return real(dataset, **kwargs)

    monkeypatch.setattr(simulate, "run_knockoff_filter", failing)
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        with pytest.raises(
            SweepAborted, match="n=600 failed with SingularSystem: boom at trial 1$"
        ) as info:
            run_sweep(_cfg(n_grid=(400, 600), trials=8, threads=4))
        assert isinstance(info.value.__cause__, SingularSystem)
        assert [row.n for row in info.value.rows] == [400]


def _fails_in_workers(monkeypatch, fail):
    """Run ``fail(t)`` in place of the filter on the trials a forked worker runs."""
    parent, real = os.getpid(), simulate.run_knockoff_filter

    def filter_(dataset, **kwargs):
        if os.getpid() != parent:
            fail(_trial_index(kwargs))
        return real(dataset, **kwargs)

    monkeypatch.setattr(simulate, "run_knockoff_filter", filter_)


def _raise(exc):
    raise exc


def _unpicklable(t):
    exc = SingularSystem(f"trial {t}")
    exc.hook = lambda: None  # a lambda does not pickle
    raise exc


@pytest.mark.parametrize("fail, error, match", [
    (lambda t: _raise(ValueError(f"not a package error at trial {t}")),
     ValueError, "not a package error at trial 1$"),
    (_unpicklable, ChildProcessError, "a sweep worker at n=400 ended before it sent its trials"),
    (lambda t: os.kill(os.getpid(), signal.SIGKILL),
     ChildProcessError, "a sweep worker at n=400 ended before it sent its trials"),
    # the worker sends every trial, then exits with status 3
    (lambda t: setattr(os, "_exit", lambda status, _exit=os._exit: _exit(3)),
     ChildProcessError, "a forked child ended with wait status 768"),
], ids=["non-package-error", "unpicklable-error", "worker-killed", "worker-exit-status"])
def test_a_worker_failure_raises_in_the_parent(monkeypatch, fail, error, match):
    _cpus(monkeypatch, 2)
    _fails_in_workers(monkeypatch, fail)
    with pytest.raises(error, match=match):
        run_sweep(_cfg(trials=4, threads=2))


def _interrupt_parent_share(monkeypatch):
    parent, real = os.getpid(), simulate._trial_outcome

    def outcome(cfg, n, n_idx, t):
        if os.getpid() == parent and t == 3:  # its second trial, while the workers run
            raise KeyboardInterrupt
        return real(cfg, n, n_idx, t)

    monkeypatch.setattr(simulate, "_trial_outcome", outcome)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
@pytest.mark.parametrize("failure, error", [
    (None, None),
    (lambda mp: _fails_in_workers(mp, lambda t: _raise(SingularSystem("boom"))), SweepAborted),
    (_interrupt_parent_share, KeyboardInterrupt),
    (lambda mp: _fails_in_workers(mp, lambda t: os.kill(os.getpid(), signal.SIGKILL)),
     ChildProcessError),
], ids=["ok", "sweep-aborted", "parent-interrupt", "worker-killed"])
def test_run_sweep_leaves_no_worker_or_descriptor_behind(tmp_path, monkeypatch, failure, error):
    _cpus(monkeypatch, 3)
    if failure is not None:
        failure(monkeypatch)
    parent, fds = os.getpid(), sorted(os.listdir("/proc/self/fd"))
    raised = None
    try:
        run_sweep(_cfg(n_grid=(400, 500), trials=6, threads=3))
    except BaseException as exc:  # KeyboardInterrupt included
        raised = exc
    if os.getpid() != parent:  # reached only by a worker that returned into this test
        (tmp_path / "escaped").touch()
        os._exit(0)
    assert not (tmp_path / "escaped").exists()
    assert raised is None if error is None else isinstance(raised, error)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_run_sweep_pins_blas_to_one_thread(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, whose thread controls the sweep does not look up")
    controls = design._blas_thread_controls()
    assert controls, "numpy's scipy-openblas thread controls were not found"
    get, set_ = controls
    parent = os.getpid()

    def outcome(*args):
        # as (fdp, power): the BLAS threads the trial saw, and whether a worker ran it
        return (float(get()), float(os.getpid() != parent))

    monkeypatch.setattr(simulate, "_trial_outcome", outcome)
    _cpus(monkeypatch, 2)
    before = get()
    set_(2)  # so the pin shows on a one-core host too
    try:
        row = run_sweep(_cfg(trials=3, threads=2))[0]
        assert (row.fdr_hat, row.fdr_se) == (1.0, 0.0)
        assert row.power_hat == pytest.approx(1 / 3)  # trial 1 ran in the forked worker
        assert get() == 2
    finally:
        set_(before)


def test_run_sweep_runs_unpinned_without_blas_controls(monkeypatch):
    monkeypatch.setattr(design, "_blas_thread_controls", lambda: ())
    assert run_sweep(_cfg(trials=2))[0].trials == 2


def _counting_blas_controls(monkeypatch, threads=4):
    """Fake OpenBLAS thread controls, running ``threads`` threads; returns the set calls."""
    running, sets = [threads], []

    def set_(count):
        sets.append(count)
        running[0] = count

    monkeypatch.setattr(design, "_blas_thread_controls", lambda: (lambda: running[0], set_))
    return sets


def test_a_nested_blas_pin_makes_no_call(monkeypatch):
    # OpenBLAS's fork handler stops its thread server and a set call restarts
    # it, so a pin where one thread runs already (nested, or in a forked child) sets nothing
    sets = _counting_blas_controls(monkeypatch)
    with design._single_blas_thread():
        with design._single_blas_thread():
            assert sets == [1]
    assert sets == [1, 4]


def test_a_one_process_sweep_pins_once_per_cell(monkeypatch):
    sets = _counting_blas_controls(monkeypatch)
    rows = run_sweep(_cfg(n_grid=(400, 600), trials=5))
    assert [row.trials for row in rows] == [5, 5]
    assert sets == [1, 4, 1, 4]  # around each cell, never around a trial


def test_run_sweep_global_null():
    # with no signal the realized FDP is bounded by q up to Monte Carlo error
    row = run_sweep(_cfg(k=0, trials=60, q=0.2))[0]
    assert row.power_hat == 0.0
    assert row.fdr_hat <= 0.2 + 3.0 * row.fdr_se


def test_run_sweep_single_trial_se_zero():
    with pytest.warns(UserWarning):
        row = run_sweep(_cfg(trials=1))[0]
    assert row.fdr_se == 0.0 and row.power_se == 0.0


def test_run_sweep_deterministic_across_thread_counts(tmp_path, monkeypatch):
    # 1-4 CPUs: more threads than CPUs, and fewer, and as many
    reports = set()
    for cpus in (1, 2, 3, 4):
        _cpus(monkeypatch, cpus)
        for threads in (1, 4, 8):
            cfg = _cfg(method="2", p=12, k=3, eps=0.3, trials=10, threads=threads,
                       n_grid=(400, 500))
            out = tmp_path / f"c{cpus}t{threads}.csv"
            write_report(run_sweep(cfg), out)
            reports.add(out.read_bytes())
    assert len(reports) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_run_sweep_runs_without_sched_getaffinity(monkeypatch, threads):
    # as on macOS: the worker cap falls back to the CPU count
    cfg = _cfg(method="2", p=12, k=3, eps=0.3, trials=10, threads=threads, n_grid=(400, 500))
    rows = run_sweep(cfg)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # threads = 2 forks a worker on any host
    assert run_sweep(cfg) == rows


def test_trial_outcomes_are_placed_by_trial_index(monkeypatch):
    monkeypatch.setattr(simulate, "_trial_outcome", lambda cfg, n, n_idx, t: (float(t), 0.0))
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        outcomes = simulate._cell_outcomes(_cfg(trials=7, threads=3), 400, 0)
        assert outcomes == [(float(t), 0.0) for t in range(7)]


def test_write_report_round_trip(tmp_path):
    rows = run_sweep(_cfg(trials=3, n_grid=(500, 400)))
    out = tmp_path / "report.csv"
    write_report(rows, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "n,method,stat,trials,fdr_hat,fdr_se,power_hat,power_se,"
        "eps_total,delta_total,failures"
    )
    assert len(lines) == 3
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == sorted(ns)
    # values parse back at 6 significant digits
    row = rows[0]
    parsed = lines[1].split(",")
    assert float(parsed[4]) == pytest.approx(row.fdr_hat, rel=1e-5, abs=1e-9)


def test_write_report_empty(tmp_path):
    out = tmp_path / "empty.csv"
    write_report((), out)
    assert out.read_text() == ",".join(simulate.REPORT_COLUMNS) + "\n"  # header only


def test_write_plot_data(tmp_path):
    rows = run_sweep(_cfg(trials=3))
    out, plot = tmp_path / "report.csv", tmp_path / "plot.csv"
    write_report(rows, out, plot)
    lines = plot.read_text().strip().split("\n")
    assert lines[0].startswith("n,log10_n,method,stat,")
    assert float(lines[1].split(",")[1]) == pytest.approx(math.log10(400), rel=1e-6)


GOLDEN_ROWS = (
    SimRow(n=400, method="2", stat="csm", trials=12, fdr_hat=0.123456789, fdr_se=0.0123456789,
           power_hat=1.0, power_se=0.0, eps_total=0.3, delta_total=2 * 12 / 400, failures=0),
    SimRow(n=100000, method="1", stat="lcd", trials=247, fdr_hat=1 / 3, fdr_se=1.5e-7,
           power_hat=0.999999949, power_se=2 / 3, eps_total=0.7, delta_total=1e-3 / 3, failures=3),
)


def test_write_report_bytes_are_pinned(tmp_path):
    # the bytes of the sweep CSV and its plot CSV, 6 significant digits
    out, plot = tmp_path / "report.csv", tmp_path / "plot.csv"
    write_report(GOLDEN_ROWS, out, plot)
    assert out.read_bytes() == (
        b"n,method,stat,trials,fdr_hat,fdr_se,power_hat,power_se,eps_total,delta_total,failures\n"
        b"400,2,csm,12,0.123457,0.0123457,1,0,0.3,0.06,0\n"
        b"100000,1,lcd,247,0.333333,1.5e-07,1,0.666667,0.7,0.000333333,3\n"
    )
    assert plot.read_bytes() == (
        b"n,log10_n,method,stat,fdr_hat,fdr_se,power_hat,power_se\n"
        b"400,2.60206,2,csm,0.123457,0.0123457,1,0\n"
        b"100000,5,1,lcd,0.333333,1.5e-07,1,0.666667\n"
    )


def test_write_report_writes_rows_in_the_order_given(tmp_path):
    out = tmp_path / "report.csv"
    write_report(GOLDEN_ROWS[::-1], out)
    assert [line.split(",")[0] for line in out.read_text().split("\n")[1:-1]] == ["100000", "400"]


def test_write_report_keeps_the_rows_before_a_failure(tmp_path):
    def rows():
        yield GOLDEN_ROWS[0]
        raise RuntimeError("the sweep stopped")

    out, plot = tmp_path / "report.csv", tmp_path / "plot.csv"
    with pytest.raises(RuntimeError, match="the sweep stopped"):
        write_report(rows(), out, plot)
    full_out, full_plot = tmp_path / "full.csv", tmp_path / "full_plot.csv"
    write_report(GOLDEN_ROWS[:1], full_out, full_plot)
    assert out.read_bytes() == full_out.read_bytes()
    assert plot.read_bytes() == full_plot.read_bytes()
    assert out.read_text().count("\n") == plot.read_text().count("\n") == 2


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_read_config_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        """
        # sweep at two sample sizes
        n_grid = 400, 800
        p = 20
        k = 2
        amplitude = 3.0
        sigma2 = 1.0
        q = 0.2
        trials = 4
        method = 2
        stat = csm
        eps = 0.2
        base_seed = 42
        threads = 2
        """,
        encoding="utf-8",
    )
    cfg = read_config(path)
    assert cfg.n_grid == (400, 800)
    assert cfg.method == "2" and cfg.stat == "csm"
    assert cfg.eps == 0.2 and cfg.base_seed == 42 and cfg.threads == 2


def test_read_config_round_trips_every_field(tmp_path):
    cfg = SimConfig(
        n_grid=(400, 800), p=12, k=3, amplitude=2.5, sigma2=1.5, q=0.1, trials=4,
        method="1", stat="csm", eps=0.3, eps_1=0.2, eps_2=0.1, delta_rule="fixed",
        delta_value=0.03, base_seed=9, threads=2, pessimism=1.5,
    )
    fields = dataclasses.fields(SimConfig)
    # every field differs from its default, so a dropped key would show
    assert all(getattr(cfg, f.name) != f.default for f in fields)
    spelling = {"eps_1": "eps1", "eps_2": "eps2"}
    lines = []
    for f in fields:
        value = getattr(cfg, f.name)
        text = ", ".join(map(str, value)) if f.name == "n_grid" else str(value)
        lines.append(f"{spelling.get(f.name, f.name)} = {text}")
    path = tmp_path / "every.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read_config(path) == cfg


def test_read_config_refuses_a_design_with_no_columns(tmp_path):
    path = tmp_path / "no_columns.cfg"
    path.write_text(
        "n_grid = 10\np = 0\nk = 0\namplitude = 0\nsigma2 = 1\nq = 0.2\ntrials = 2\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigInvalid, match="need p >= 1 and p >= k >= 0, got p=0, k=0"):
        read_config(path)


def test_read_config_keeps_the_config_spelling(tmp_path):
    base = "n_grid = 100\np = 5\nk = 2\namplitude = 1\nsigma2 = 1\nq = .2\ntrials = 2\n"
    path = tmp_path / "field_name.cfg"
    path.write_text(base + "eps_1 = 0.2\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="unknown key 'eps_1'"):
        read_config(path)
    path.write_text("p = 5\nk = 2\n", encoding="utf-8")
    with pytest.raises(
        ConfigInvalid, match="missing required keys: n_grid, amplitude, sigma2, q, trials$"
    ):
        read_config(path)
    path.write_text(base.replace("p = 5", "p = 5.0"), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="invalid literal for int"):
        read_config(path)


@pytest.mark.parametrize(
    "payload",
    [
        "p = 5",  # missing required keys
        "n_grid = 100\np = 5\nk = 2\namplitude = 1\nsigma2 = 1\nq = .2\ntrials = 2\nwat = 1",
        "n_grid = 100\nn_grid = 200\np = 5\nk = 2\namplitude = 1\nsigma2 = 1\nq = .2\ntrials = 2",
        "just some words",
    ],
)
def test_read_config_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.cfg"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        read_config(path)
