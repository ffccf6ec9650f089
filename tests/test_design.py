import contextlib
import functools
import gzip
import io
import itertools
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpknockoff import (
    BoundViolation,
    Dataset,
    DimensionMismatch,
    InvalidDesign,
    ModelOracle,
    ParseError,
    PrivacyBudget,
    load_dataset,
)
from dpknockoff import design, knockoffs
from dpknockoff.design import compute_bounds
from dpknockoff.pipeline import run_knockoff_filter
from dpknockoff.simulate import SimConfig, generate_trial
from reference import normalize_columns


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_dataset_infers_shape(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 5))
    y = rng.standard_normal(100)
    xp = _write(tmp_path / "x.csv", "\n".join(",".join(f"{v:.12g}" for v in row) for row in x))
    yp = _write(tmp_path / "y.csv", "\n".join(f"{v:.12g}" for v in y))
    ds = load_dataset(xp, yp)
    assert ds.n == 100 and ds.p == 5
    assert ds.x is None  # streamed: the record holds sums, not the design
    assert np.allclose(ds.gram, x.T @ x) and np.allclose(ds.y, y)


def test_load_dataset_header_row(tmp_path):
    xp = _write(tmp_path / "x.csv", "a,b\n1,0\n0,1\n1,1\n0.5,1\n1,0.5\n")
    yp = _write(tmp_path / "y.csv", "resp\n1\n2\n3\n4\n5\n")
    ds = load_dataset(xp, yp, has_header=True)
    assert ds.n == 5 and ds.p == 2


def test_load_dataset_length_mismatch(tmp_path):
    xp = _write(tmp_path / "x.csv", "1\n2\n3\n")
    yp = _write(tmp_path / "y.csv", "1\n2\n3\n4\n")
    with pytest.raises(DimensionMismatch):
        load_dataset(xp, yp)


def test_load_dataset_rejects_zero_column(tmp_path):
    xp = _write(tmp_path / "x.csv", "1,0\n0,0\n1,0\n0,0\n")
    yp = _write(tmp_path / "y.csv", "1\n2\n3\n4\n")
    with pytest.raises(InvalidDesign):
        load_dataset(xp, yp)


def test_load_dataset_rejects_small_n(tmp_path):
    xp = _write(tmp_path / "x.csv", "1,0\n0,1\n1,1\n")
    yp = _write(tmp_path / "y.csv", "1\n2\n3\n")
    with pytest.raises(InvalidDesign):
        load_dataset(xp, yp)


@pytest.mark.parametrize("payload", ["1,2\n3\n4,5\n", "1,oops\n3,4\n5,6\n7,8\n"])
def test_load_dataset_parse_errors(tmp_path, payload):
    xp = _write(tmp_path / "x.csv", payload)
    yp = _write(tmp_path / "y.csv", "1\n2\n3\n4\n")
    with pytest.raises(ParseError):
        load_dataset(xp, yp)


def test_the_design_files_error_comes_first_on_every_input(tmp_path, compressed_copies, fifo_of):
    xp = _write(tmp_path / "x.csv", "1,2\n3,oops\n5,6\n")
    yp = _write(tmp_path / "y.csv", "")  # refused too, but after the design
    for path in (xp, *compressed_copies(xp), fifo_of(xp)):
        with pytest.raises(ParseError, match=f"^could not parse design file {re.escape(path)}"):
            load_dataset(path, yp)


def test_load_dataset_refuses_several_values_per_response_line(tmp_path):
    # read row-major, a 15 x 2 response would pair each design row with an unrelated value
    rng = np.random.default_rng(7)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, rng.standard_normal((30, 3)), delimiter=",")
    np.savetxt(yp, rng.standard_normal((15, 2)))
    message = f"response file {yp} has 2 values per line; expected one"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_dataset(str(xp), str(yp))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content", ["", "\n\n", "# only a comment\n"])
@pytest.mark.parametrize("empty", ["x", "y"])
def test_load_dataset_names_an_empty_file(tmp_path, empty, content):
    xp, yp = _write_design_csv(tmp_path, 60, 3)
    path = xp if empty == "x" else yp
    _write(tmp_path / os.path.basename(path), content)
    kind = "design" if empty == "x" else "response"
    with pytest.raises(ParseError, match=f"^{re.escape(f'{kind} file {path} contains no data')}$"):
        load_dataset(xp, yp)


def test_from_arrays_rejects_nonfinite():
    x = np.ones((6, 2))
    x[0, 0] = np.nan
    with pytest.raises(InvalidDesign):
        Dataset.from_arrays(x, np.ones(6))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (-1, -1), (25, 2)])
def test_from_arrays_rejects_nonfinite_through_the_gram(value, where):
    x = np.random.default_rng(5).standard_normal((50, 5))
    x[where] = value
    with pytest.raises(InvalidDesign, match="non-finite entries"):
        Dataset.from_arrays(x, np.ones(50))


@pytest.mark.parametrize("value, y_len, p, error, match", [
    # a non-finite x is reported before a wrong-length y or n < 2p ...
    (np.nan, 49, 5, InvalidDesign, "non-finite entries"),
    (np.nan, 50, 30, InvalidDesign, "non-finite entries"),
    # ... and a finite but overflowing x after them
    (1e160, 49, 5, DimensionMismatch, "49 entries but design has 50 rows"),
    (1e160, 50, 30, InvalidDesign, "n=50 < 2p=60"),
])
def test_from_arrays_combined_defects_keep_their_order(value, y_len, p, error, match):
    x = np.random.default_rng(6).standard_normal((50, p))
    x[3, 1] = value
    with pytest.raises(error, match=match):
        Dataset.from_arrays(x, np.ones(y_len))


def test_from_arrays_refused_shape_forms_no_gram(monkeypatch):
    summed, seen = Dataset._summed.__func__, []
    monkeypatch.setattr(Dataset, "_summed", classmethod(
        lambda cls, sums, **source: seen.append(sums) or summed(cls, sums, **source)))
    with pytest.raises(InvalidDesign, match="n=4 < 2p"):
        Dataset.from_arrays(np.ones((4, 3)), np.ones(4))
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(np.ones((8, 3)), np.ones(7))
    # the sums the builder validated hold no X^T X
    assert [(sums.n, sums.p, sums.gram) for sums in seen] == [(4, 3, None), (8, 3, None)]


def test_only_a_drawn_probe_allocates_probe_sums():
    # an in-memory record and calibrate's load draw no probe, so hold no p x p probe sums
    x = np.random.default_rng(8).standard_normal((40, 5))
    for m in (None, 0):
        sums = design._Sums(np.ones(40), m)
        sums._add(x)
        assert hasattr(sums, "xtw") == (m is not None)


@pytest.mark.parametrize("shape, y_len, error, match", [
    ((4, 0), 4, InvalidDesign, r"^the design has no columns \(4 x 0\)$"),
    ((0, 0), 0, InvalidDesign, r"^the design has no columns \(0 x 0\)$"),
    # no rows: the response's length or 2p refuses the shape
    ((0, 3), 10, DimensionMismatch, "10 entries but design has 0 rows"),
    ((0, 3), 0, InvalidDesign, "n=0 < 2p=6"),
    # an empty response cuts the rows into full blocks, not endless empty ones
    ((5, 0), 0, DimensionMismatch, "0 entries but design has 5 rows"),
])
def test_from_arrays_refuses_a_design_with_no_rows_or_columns(shape, y_len, error, match):
    with pytest.raises(error, match=match):
        Dataset.from_arrays(np.ones(shape), np.ones(y_len))


def test_from_arrays_rejects_overflowing_gram():
    # every entry is finite, but the scaled column's squared norm overflows
    x = np.random.default_rng(2).standard_normal((200, 5))
    x[:, 1] *= 1e160
    with pytest.raises(InvalidDesign, match="overflows"):
        Dataset.from_arrays(x, np.ones(200))


def test_normalize_columns_hand_checked():
    # column norms are 5 and 2; the zero padding row keeps n >= 2p
    x = np.array([
        [3.0, 0.0],
        [4.0, 0.0],
        [0.0, 2.0],
        [0.0, 0.0],
    ])
    nd = normalize_columns(Dataset.from_arrays(x, np.zeros(4)))
    assert np.allclose(nd.x_prime[:, 0], [0.6, 0.8, 0.0, 0.0])
    assert np.allclose(nd.x_prime[:, 1], [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(nd.normalizer_d, [0.2, 0.5])


def test_normalize_identity_on_unit_columns():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    x /= np.linalg.norm(x, axis=0)
    nd = normalize_columns(Dataset.from_arrays(x, np.zeros(40)))
    assert np.max(np.abs(nd.x_prime - x)) <= 1e-12
    assert np.allclose(nd.normalizer_d, 1.0)


def test_normalize_scale_invariance_and_idempotence():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 4))
    nd = normalize_columns(Dataset.from_arrays(x, np.zeros(30)))

    scaled = x.copy()
    scaled[:, 2] *= 17.5
    nd_scaled = normalize_columns(Dataset.from_arrays(scaled, np.zeros(30)))
    assert np.max(np.abs(nd_scaled.x_prime - nd.x_prime)) <= 1e-12

    again = normalize_columns(Dataset.from_arrays(nd.x_prime, np.zeros(30)))
    assert np.max(np.abs(again.x_prime - nd.x_prime)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(nd.x_prime, axis=0) - 1.0)) <= 1e-10


def _block_design():
    # 8x2 design, one +/-1 entry per row, four entries per column:
    # every row has norm 1, every column has norm 2
    x = np.zeros((8, 2))
    x[:4, 0] = [1.0, -1.0, 1.0, -1.0]
    x[4:, 1] = [1.0, -1.0, 1.0, -1.0]
    return Dataset.from_arrays(x, np.zeros(8))


@pytest.mark.parametrize("beta_norm, sigma2, match", [
    (-1.0, 1.0, "beta_norm_bound must be nonnegative"),
    (np.nan, 1.0, "beta_norm_bound must be nonnegative"),
    (1.0, 0.0, "sigma2_bound must be strictly positive"),
    (1.0, -1.0, "sigma2_bound must be strictly positive"),
    (1.0, np.nan, "sigma2_bound must be strictly positive"),
])
def test_model_oracle_refuses_a_bad_bound(beta_norm, sigma2, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        ModelOracle(beta_norm_bound=beta_norm, sigma2_bound=sigma2)


def test_model_oracle_refuses_a_truth_it_does_not_describe():
    with pytest.raises(ValueError, match="^beta_norm_bound=4.9 is below the true coefficient norm 5$"):
        ModelOracle(beta_norm_bound=4.9, sigma2_bound=1.0, true_beta=np.array([3.0, 4.0, 0.0]))


def test_compute_bounds_block_design():
    nb = compute_bounds(_block_design())
    assert nb.row_bound_B == pytest.approx(1.0)
    assert nb.col_min_C == pytest.approx(2.0)


def test_compute_bounds_override_violation():
    # 5 covers every row (norm 1) but not B < C_min = 2
    with pytest.raises(BoundViolation, match="strictly below the smallest column norm"):
        compute_bounds(_block_design(), row_bound_override=5.0)


@pytest.mark.parametrize("override", [0.5, 1.0 - 1e-12, 0.0, -1.0])
def test_compute_bounds_refuses_override_below_the_data(override):
    with pytest.raises(
        BoundViolation,
        match=rf"^row bound B={override!r} is below the observed maximum row norm; the "
        "calibration must cover every row$",
    ) as refused:
        compute_bounds(_block_design(), row_bound_override=override)
    # the observed norm is one individual's row norm: the refusal does not name it
    assert "norm 1.0" not in str(refused.value)
    # at or above the largest row norm, an override is a worst-case bound
    for b in (1.0, 1.5):
        assert compute_bounds(_block_design(), row_bound_override=b).row_bound_B == b


@pytest.mark.parametrize("b, c", [(0.0, 2.0), (-1.0, 2.0), (np.nan, 2.0),
                                  (1.0, 0.0), (1.0, -2.0), (1.0, np.nan)])
def test_norm_bounds_refuse_a_bound_not_strictly_positive(b, c):
    with pytest.raises(BoundViolation, match="^norm bounds must be strictly positive$"):
        design.NormBounds(row_bound_B=b, col_min_C=c)


def test_compute_bounds_duplicate_max_row():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4)) * 0.1
    x[0, :] = 0.2  # make row 0 the unique max-norm row
    x2 = np.vstack([x, x[0:1]])
    b1 = compute_bounds(Dataset.from_arrays(x, np.zeros(50))).row_bound_B
    b2 = compute_bounds(Dataset.from_arrays(x2, np.zeros(51))).row_bound_B
    assert b1 == b2


def test_compute_bounds_col_min_is_attained():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 5))
    nb = compute_bounds(Dataset.from_arrays(x, np.zeros(60)))
    col_norms = np.linalg.norm(x, axis=0)
    assert np.all(nb.col_min_C <= col_norms + 1e-12)
    assert np.any(np.isclose(nb.col_min_C, col_norms))


def test_column_norms_computed_once_and_shared():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 5)) * np.logspace(-3, 3, 5)
    ds = Dataset.from_arrays(x, np.zeros(60))
    norms = ds.col_norms
    assert norms is ds.col_norms and not norms.flags.writeable
    # defined from the one raw Gram; agrees with a direct norm to rounding
    assert np.array_equal(norms, np.sqrt(np.diag(ds.gram)))
    direct = np.linalg.norm(x, axis=0)
    assert np.max(np.abs(norms - direct) / direct) <= 1e-14
    assert np.array_equal(normalize_columns(ds).normalizer_d, 1.0 / norms)
    assert not ds.gram.flags.writeable and not ds.normalizer_d.flags.writeable
    # no row bound fits below this spread design's C_min; a tall one shares its C_min too
    tall = Dataset.from_arrays(rng.standard_normal((600, 5)), np.zeros(600))
    b = 2.0 * compute_bounds(tall).row_bound_B
    assert compute_bounds(tall, row_bound_override=b).col_min_C == float(tall.col_norms.min())


def _write_design_csv(tmp_path, n, p, seed=0):
    rng = np.random.default_rng(seed)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, rng.standard_normal((n, p)), delimiter=",", fmt="%.6f")
    np.savetxt(yp, rng.standard_normal(n), fmt="%.6f")
    return str(xp), str(yp)


def _trial_config(p):
    return SimConfig(n_grid=(100,), p=p, k=2, amplitude=3.0, sigma2=1.0, q=0.2, trials=1)


@pytest.mark.parametrize("builder", ["from_arrays", "load_dataset", "generate_trial"])
def test_dataset_arrays_are_read_only_on_every_path(tmp_path, builder):
    if builder == "from_arrays":
        rng = np.random.default_rng(1)
        ds = Dataset.from_arrays(rng.standard_normal((40, 4)), rng.standard_normal(40))
    elif builder == "load_dataset":
        ds = load_dataset(*_write_design_csv(tmp_path, 40, 4))
    else:
        ds, _ = generate_trial(40, _trial_config(4), 3)
    assert (ds.x is None) == (builder == "load_dataset")
    arrays = (ds.x, ds.y, ds.gram, ds.col_norms, ds.normalizer_d, ds.xty, *(ds.probe_sums or ()))
    for array in (a for a in arrays if a is not None):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_from_arrays_copies_the_callers_arrays():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((40, 4)), rng.standard_normal(40)
    ds = Dataset.from_arrays(x, y)
    x_before, gram_before, norms_before = ds.x.copy(), ds.gram.copy(), ds.col_norms.copy()
    x *= 10.0
    y[:] = 0.0
    assert x.flags.writeable and y.flags.writeable
    assert np.array_equal(ds.x, x_before) and not np.array_equal(ds.x, x)
    assert np.array_equal(ds.gram, gram_before)
    assert np.array_equal(ds.col_norms, norms_before)
    assert np.any(ds.y != 0.0)


@pytest.mark.parametrize("builder", ["load_dataset", "generate_trial"])
def test_building_a_dataset_holds_one_design(tmp_path, builder):
    # the builders hand their fresh arrays to the dataset: the traced peak
    # stays near one n x p design, well below a second (copied) one
    n, p = 20_000, 50
    if builder == "load_dataset":
        build = functools.partial(load_dataset, *_write_design_csv(tmp_path, n, p))
    else:
        build = functools.partial(generate_trial, n, _trial_config(p), 5)
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * p, f"peak {peak / (8 * n * p):.2f} x the design"


# -- the design parsed by forked workers, in newline-aligned chunks ---------

def _serial_design(path, skip=0):
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, dtype=float)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# the default chunk size, then one that deals each worker many chunks, so that
# headers, CRLF, lone CR and comment-only chunks cross chunk edges
CHUNK_BYTES = (design._CHUNK_BYTES, 40)


def _streamed_rows(monkeypatch, path, skip=0):
    """The rows one streaming pass sums, in order, and the workers it forked."""
    rows, children = [], []
    add, fork = design._Sums._add, os.fork

    def spy_add(sums, block):
        rows.append(block.copy())
        add(sums, block)

    def spy_fork():
        pid = fork()
        children.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(design._Sums, "_add", spy_add)
    monkeypatch.setattr(os, "fork", spy_fork)
    design._stream(str(path), skip, None, None)
    return np.concatenate(rows), len(children)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(n, p, seed=11):
    scales = 10.0 ** (np.arange(p) % 6 - 3)  # digits of every width in each part
    x = np.random.default_rng(seed).standard_normal((n, p)) * scales
    return [",".join(f"{v:.17g}" for v in row) for row in x]


def _interleaved(rows):
    out = []
    for i, row in enumerate(rows):
        out += ["", "# comment line"] if i % 7 == 3 else []
        out.append(f"{row}  # trailing comment" if i % 5 == 1 else row)
    return out


def _mixed_endings(rows):
    endings = ["\n", "\r\n", "\r", "\r\r\n"]
    return "".join(row + endings[i % 4] for i, row in enumerate(rows))


SPLIT_CASES = {
    # name: (file text, skip)
    "header": ("a,b,c\n" + "\n".join(_rows(80, 3)) + "\n", 1),
    "crlf": ("\r\n".join(_rows(80, 3)) + "\r\n", 0),
    "crlf_header": ("a,b,c\r\n" + "\r\n".join(_rows(80, 3)) + "\r\n", 1),
    "no_trailing_newline": ("\n".join(_rows(80, 3)), 0),
    "blank_and_comment_lines": ("\n".join(_interleaved(_rows(80, 3))) + "\n", 0),
    "trailing_blank_lines": ("\n".join(_rows(80, 3)) + "\n\n\n\n", 0),
    "one_column": ("\n".join(_rows(80, 1)) + "\n", 0),
    # numpy reads a lone CR as a line end; a part must be split into lines the same way
    "mixed_line_endings": (_mixed_endings(_rows(80, 3)), 0),
}


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_parse_is_bit_identical_to_one_loadtxt(tmp_path, monkeypatch, case, cpus):
    text, skip = SPLIT_CASES[case]
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    _cpus(monkeypatch, cpus)
    for chunk_bytes in CHUNK_BYTES:
        with monkeypatch.context() as m:
            m.setattr(design, "_CHUNK_BYTES", chunk_bytes)
            x, children = _streamed_rows(m, path, skip)
        assert children > 0, "the split did not run"
        _assert_same_bits(x, _serial_design(str(path), skip))
        _assert_no_child_left()


@pytest.mark.parametrize("newline", ["\n", ""])
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_split_parse_with_a_cut_in_the_last_line(tmp_path, monkeypatch, cpus, newline):
    # the last line, padded by a comment, starts at about 42% of the file, so
    # the last cut lands in it; with two CPUs that is the only cut
    rows = _rows(60, 3)
    body = "\n".join(rows[:-1]) + "\n"
    text = body + rows[-1] + " #" + "x" * (7 * len(body) // 5) + newline
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    _cpus(monkeypatch, cpus)
    for chunk_bytes in CHUNK_BYTES:
        with monkeypatch.context() as m:
            m.setattr(design, "_CHUNK_BYTES", chunk_bytes)
            x, children = _streamed_rows(m, path)
        # one worker per chunk, up to the CPU count: at the default size the
        # cuts that land in the last line merge into one chunk with it, and
        # 40-byte chunks make each of the 60 lines a chunk of its own
        chunks = (1 if cpus == 2 else 2) if chunk_bytes == design._CHUNK_BYTES else 60
        assert children == min(cpus, chunks)
        _assert_same_bits(x, _serial_design(str(path)))
        assert x.shape == (60, 3)


def test_the_stream_forks_without_sched_getaffinity(tmp_path, monkeypatch):
    # macOS has no affinity mask: the stream counts os.cpu_count()'s CPUs
    # instead of raising into the serial fallback
    text, skip = SPLIT_CASES["header"]
    path = _write(tmp_path / "x.csv", text)
    y = np.linspace(-1.0, 1.0, 80)
    forks, fork = [], os.fork

    def spy_fork():
        forks.append(None)
        return fork()

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(design, "_CHUNK_BYTES", 40)
    streamed = design._stream(path, skip, y, 0)
    assert len(forks) == 2
    _assert_no_child_left()
    serial = design._parsed(path, skip, y, 0)[0]
    for a, b in zip((streamed.gram, streamed.xty, *streamed.probe_products),
                    (serial.gram, serial.xty, *serial.probe_products)):
        _assert_same_bits(a, b)
    assert streamed.row_norm_sq_max == serial.row_norm_sq_max


def test_split_parse_leaves_a_compressed_design_to_loadtxt(tmp_path, monkeypatch, compressed_copies):
    # np.loadtxt decompresses by name; a compressed file's bytes fail the
    # stream, and the serial parse folds the plain file's blocks
    xp = _write(tmp_path / "x.csv", "\n".join(_rows(3000, 3)) + "\n")
    yp = _write(tmp_path / "y.csv", "\n".join(["1"] * 3000) + "\n")
    _cpus(monkeypatch, 4)
    plain = load_dataset(xp, yp)
    for path in compressed_copies(xp):
        ds = load_dataset(path, yp)
        assert ds.x is None and ds.design_file == (path, 0)
        _assert_same_record(ds, plain)
    _assert_no_child_left()


def test_a_compressed_name_is_never_streamed(tmp_path, monkeypatch):
    # np.loadtxt opens x.csv.gz through gzip whatever its bytes are, so plain
    # text under that name fails as the serial parse fails, fork or no fork
    xp = _write(tmp_path / "x.csv.gz", "\n".join(_rows(50, 3)) + "\n")
    yp = _write(tmp_path / "y.csv", "1\n" * 50)
    errors = []
    for cpus, fork_fails in ((1, False), (2, False), (2, True)):
        with monkeypatch.context() as m:
            _cpus(m, cpus)
            if fork_fails:
                _fork_fails(m)
            with pytest.raises(OSError) as info:
                load_dataset(xp, yp)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(gzip.BadGzipFile, errors[0][1])] * 3
    _assert_no_child_left()


@pytest.mark.parametrize("bad_row", ["1.5,2.5", "1.5,oops,2.5", "1.5,2.5,3.5,4.5"])
def test_split_parse_error_in_a_later_part_is_the_serial_error(tmp_path, monkeypatch, bad_row):
    rows = _rows(80, 3)
    rows[70] = bad_row
    xp, yp = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    _write(tmp_path / "x.csv", "\n".join(rows) + "\n")
    _write(tmp_path / "y.csv", "\n".join(["1"] * 80) + "\n")
    errors = []
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ParseError) as info:
            load_dataset(xp, yp)
        errors.append(str(info.value))
    # whole-file row numbers (numpy counts from 0 or 1, by message), not a part's
    assert errors[0] == errors[1] and ("row 70" in errors[0] or "row 71" in errors[0])
    _assert_no_child_left()


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_a_workers_short_read_falls_back_to_the_serial_parse(tmp_path, monkeypatch):
    xp, yp = _write_design_csv(tmp_path, 400, 5)
    _cpus(monkeypatch, 2)
    pread, parsed, fallbacks = os.pread, design._parsed, []

    def short_pread(fd, size, offset):
        return pread(fd, size, offset)[:-1]  # drops the chunk's last byte

    def spy_parsed(*args):
        fallbacks.append(args[0])
        return parsed(*args)

    monkeypatch.setattr(os, "pread", short_pread)
    monkeypatch.setattr(design, "_parsed", spy_parsed)
    ds = load_dataset(xp, yp)
    assert fallbacks == [xp]
    _assert_same_record(ds, _folded_record(_serial_design(xp), ds.y))
    _assert_no_child_left()


def test_a_worker_that_sends_fewer_rows_than_announced_falls_back(tmp_path, monkeypatch):
    xp, yp = _write_design_csv(tmp_path, 400, 5)
    _cpus(monkeypatch, 2)

    def send_half(fd, chunks, skip, writer):
        # announces its first chunk's shape, sends half of its rows and ends
        start, end = chunks[0]
        rows = _serial_design(io.BytesIO(os.pread(fd, end - start, start)), skip)
        writer.write(struct.pack("2q", *rows.shape))
        writer.write(rows[: len(rows) // 2])

    monkeypatch.setattr(design, "_send_chunks", send_half)
    with pytest.raises(EOFError, match="^a chunk's worker sent fewer rows than it announced$"):
        design._stream(xp, 0, None, 0)
    parsed, fallbacks = design._parsed, []
    monkeypatch.setattr(design, "_parsed", lambda *a: fallbacks.append(a[0]) or parsed(*a))
    ds = load_dataset(xp, yp)
    assert fallbacks == [xp]
    _assert_same_record(ds, _folded_record(_serial_design(xp), ds.y))
    _assert_no_child_left()


def test_a_width_change_at_a_chunk_cut_is_the_serial_error(tmp_path, monkeypatch):
    # 12 rows of 5 fields, then 9 of 6: the one cut two CPUs make ends the
    # line holding byte 114 of 228, which is where the width changes, so each
    # chunk parses alone and only the fold sees two widths
    xp = _write(tmp_path / "x.csv", "1,2,3,4,5\n" * 12 + "1,2,3,4,5,6\n" * 9)
    yp = _write(tmp_path / "y.csv", "1\n" * 21)
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="^a chunk has 6 columns, the first chunk 5$"):
        design._stream(xp, 0, None, 0)
    with pytest.raises(ParseError) as streamed:
        load_dataset(xp, yp)
    monkeypatch.setattr(design, "_stream", _fail)
    with pytest.raises(ParseError) as serial:
        load_dataset(xp, yp)
    assert str(streamed.value) == str(serial.value)
    _assert_no_child_left()


def _parse_fails_in_children(monkeypatch, failure):
    parent = os.getpid()
    real = design._parse_part

    def parse_part(*args):
        if os.getpid() != parent:
            raise failure
        return real(*args)

    monkeypatch.setattr(design, "_parse_part", parse_part)
    # no SIGKILL: a child that escaped os._exit runs on into the test and is seen there
    monkeypatch.setattr(os, "kill", lambda pid, sig: None)


def _fork_fails(monkeypatch):
    def fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
@pytest.mark.parametrize("failure", [
    None,
    lambda mp: _parse_fails_in_children(mp, ValueError("a child's part does not parse")),
    # a BaseException must end the child in os._exit too, never in the caller's stack
    lambda mp: _parse_fails_in_children(mp, SystemExit(0)),
    lambda mp: _parse_fails_in_children(mp, KeyboardInterrupt()),
    _fork_fails,
], ids=["ok", "child-error", "child-exit", "child-interrupt", "fork-oserror"])
def test_load_dataset_leaves_no_child_or_descriptor_behind(tmp_path, monkeypatch, failure):
    xp, yp = _write_design_csv(tmp_path, 400, 5)
    _cpus(monkeypatch, 3)
    if failure is not None:
        failure(monkeypatch)
    parent, fds = os.getpid(), _open_fds()
    ds = load_dataset(xp, yp)
    if os.getpid() != parent:  # reached only by a child that returned into this test
        (tmp_path / "escaped").touch()
        os._exit(0)
    assert not (tmp_path / "escaped").exists()
    _assert_same_record(ds, _folded_record(_serial_design(xp), ds.y))
    _assert_no_child_left()
    assert _open_fds() == fds


# -- the streamed record -----------------------------------------------------


def _folded_record(x, y):
    """The record streaming the rows of x sums, summed here from memory on one BLAS thread."""
    with design._single_blas_thread():
        return Dataset._summed(design._folded(x, y, 0))


def _record_arrays(ds):
    return (ds.gram, ds.col_norms, ds.xty, ds.y, *ds.probe_products())


def _assert_same_record(a, b):
    assert (a.n, a.p, a.row_norm_sq_max) == (b.n, b.p, b.row_norm_sq_max)
    for u, v in zip(_record_arrays(a), _record_arrays(b), strict=True):
        _assert_same_bits(u, v)


def _hostile_design(kind):
    rng = np.random.default_rng(("collinear", "spread", "n_2p").index(kind) + 40)
    if kind == "collinear":  # every pair of columns near cos = 1 - 1e-9
        z = rng.standard_normal((300, 6))
        x = np.sqrt(1e-9) * z + rng.standard_normal((300, 1))
    elif kind == "spread":  # column norms over 1e-6..1e6
        x = rng.standard_normal((200, 8)) * np.logspace(-6, 6, 8) / np.sqrt(200)
    else:
        x = rng.standard_normal((40, 20))
    return x, x[:, 0] + rng.standard_normal(x.shape[0])


def _design_text(x, layout):
    rows = [",".join(f"{v:.17g}" for v in row) for row in x]
    if layout == "header":
        return ",".join(f"c{j}" for j in range(x.shape[1])) + "\n" + "\n".join(rows) + "\n", 1
    if layout == "crlf":
        return "\r\n".join(rows) + "\r\n", 0
    return _mixed_endings(rows), 0


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("layout", ["header", "crlf", "mixed"])
@pytest.mark.parametrize("kind", ["collinear", "spread", "n_2p"])
def test_streamed_record_matches_the_in_memory_record(
    tmp_path, monkeypatch, request, kind, layout, cpus
):
    # small blocks, so every design spans several, and parts end inside them;
    # the cached probe's W^T W is summed in them too, so the cache starts and ends empty
    monkeypatch.setattr(design, "_BLOCK_ROWS", 16)
    design._default_probe.cache_clear()
    request.addfinalizer(design._default_probe.cache_clear)
    x, y = _hostile_design(kind)
    text, skip = _design_text(x, layout)
    (tmp_path / "x.csv").write_bytes(text.encode())
    yp = _write(tmp_path / "y.csv", ("resp\n" * skip) + "\n".join(f"{v:.17g}" for v in y))
    _cpus(monkeypatch, cpus)
    streamed = load_dataset(str(tmp_path / "x.csv"), yp, has_header=bool(skip))
    assert streamed.x is None
    # the same bits for every cut into parts: the sums see whole blocks in row order
    _assert_same_record(streamed, _folded_record(x, y))
    # and the in-memory record of the same rows, its probe products formed
    # from the cached probe, is summed in the same blocks: the same bits,
    # and so are the refined probe's, from the rows or from the file again
    m = np.random.default_rng(49).standard_normal((x.shape[1], x.shape[1]))
    with design._single_blas_thread():
        memory = Dataset.from_arrays(x, y)
        _assert_same_record(streamed, memory)
        for u, v in zip(memory.probe_products(m), streamed.probe_products(m), strict=True):
            _assert_same_bits(u, v)
    _assert_no_child_left()


def test_one_set_of_rows_gives_one_record(tmp_path):
    # above one 1024-row block, an in-memory record of a file's rows and the
    # loaded record are summed in the same blocks, probes and filter alike
    rng = np.random.default_rng(47)
    n, p = 3000, 20
    x = rng.standard_normal((n, p))
    xp, yp = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    np.savetxt(xp, x, delimiter=",", fmt="%.10g")
    np.savetxt(yp, x[:, :5] @ np.full(5, 0.5) + rng.standard_normal(n), fmt="%.10g")
    oracle = ModelOracle(beta_norm_bound=np.sqrt(5) * 0.5, sigma2_bound=1.0)
    budget = PrivacyBudget(eps=0.2, delta_1=0.02, delta_2=0.02)
    with design._single_blas_thread():
        memory = Dataset.from_arrays(np.loadtxt(xp, delimiter=","), np.loadtxt(yp))
        loaded = load_dataset(xp, yp)
        _assert_same_record(memory, loaded)
        # the rows, not their memory order: a Fortran-ordered design is summed as C rows
        _assert_same_record(Dataset.from_arrays(np.asfortranarray(memory.x), memory.y), loaded)
        m = rng.standard_normal((p, p))
        for u, v in zip(memory.probe_products(m), loaded.probe_products(m), strict=True):
            _assert_same_bits(u, v)
        for method in ("none", "2"):
            w_memory, w_loaded = (
                run_knockoff_filter(
                    ds, q=0.2, method=method, budget=None if method == "none" else budget,
                    oracle=oracle, seed=5,
                ).report.w.w for ds in (memory, loaded)
            )
            _assert_same_bits(w_memory, w_loaded)


def test_streaming_a_design_holds_no_design(tmp_path, monkeypatch):
    n, p = 20_000, 50
    xp, yp = _write_design_csv(tmp_path, n, p)
    _cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        ds = load_dataset(xp, yp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.x is None and ds.n == n
    assert peak < 0.25 * 8 * n * p, f"peak {peak / (8 * n * p):.2f} x the design"


# one load in a fresh process on two CPUs; prints the peak RSS of its forked workers
_WORKER_PEAK = """
import os, resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from dpknockoff import load_dataset
assert load_dataset(sys.argv[1], sys.argv[2]).n == int(sys.argv[3])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024)  # KiB on Linux
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_a_workers_memory_does_not_grow_with_the_design(tmp_path):
    # a worker holds about one chunk's rows whatever n is: allow that and as
    # much again for the parser's buffers; a worker that held its share of
    # the file would grow by (n / 2) p 8 bytes, 16 MB between these sizes
    p = 50
    rows = np.random.default_rng(12).standard_normal((1000, p))
    block = "".join(",".join(f"{v:.5f}" for v in row) + "\n" for row in rows)
    src = os.path.dirname(os.path.dirname(design.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    peaks = []
    for n in (20_000, 100_000):
        xp = _write(tmp_path / f"x{n}.csv", block * (n // 1000))
        yp = _write(tmp_path / f"y{n}.csv", "1\n" * n)
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_PEAK, xp, yp, str(n)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout))
    growth = peaks[1] - peaks[0]
    assert growth < 2 * design._CHUNK_BYTES, f"workers grew by {growth / 1e6:.1f} MB"


@pytest.mark.parametrize("path", ["stream", "serial_fallback"])
def test_a_short_response_is_refused_without_short_blocks(tmp_path, monkeypatch, path):
    # once the shape rule has failed nothing is summed, so a 1-line response
    # does not cut the design into 1-row parses and blocks
    xp, _ = _write_design_csv(tmp_path, 20_000, 5)
    _cpus(monkeypatch, 1)
    if path == "serial_fallback":
        monkeypatch.setattr(design, "_stream", _fail)
    calls = {"parse": 0, "add": 0}
    parse, add = design._parse_part, design._Sums._add

    def count(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(design, "_parse_part", count("parse", parse))
    monkeypatch.setattr(design._Sums, "_add", count("add", add))
    counts = {}
    for lines in (1, 100):
        yp = _write(tmp_path / f"y{lines}.csv", "1\n" * lines)
        calls.update(parse=0, add=0)
        with pytest.raises(DimensionMismatch) as refused:
            load_dataset(xp, yp)
        assert str(refused.value) == f"response has {lines} entries but design has 20000 rows"
        counts[lines] = dict(calls)
    assert counts[1]["parse"] <= counts[100]["parse"]
    assert counts[1]["add"] <= counts[100]["add"]


def test_a_refused_first_probe_reads_the_file_once_more(tmp_path, monkeypatch, fifo_of):
    rng = np.random.default_rng(44)
    n, p = 3000, 12
    x = rng.standard_normal((n, p))
    y = x[:, :6] @ np.full(6, 0.3) + rng.standard_normal(n)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, x, delimiter=",", fmt="%.17g")
    np.savetxt(yp, y, fmt="%.17g")
    with gzip.open(tmp_path / "x.csv.gz", "wb") as f:
        f.write(xp.read_bytes())
    fifo = fifo_of(xp)
    passes, streams = [], []
    design_sums, stream = design._design_sums, design._stream
    monkeypatch.setattr(design, "_design_sums", lambda *a: passes.append(a[3]) or design_sums(*a))
    monkeypatch.setattr(design, "_stream", lambda *a: streams.append(a[0]) or stream(*a))
    streamed = load_dataset(str(xp), str(yp))
    compressed = load_dataset(str(tmp_path / "x.csv.gz"), str(yp))
    piped = load_dataset(fifo, str(yp))
    assert passes == [0, 0] and fifo not in streams  # a pipe is parsed whole, never streamed
    _assert_same_bits(piped.x, x)  # kept for a refined probe
    for ds in (compressed, piped):
        _assert_same_record(ds, streamed)

    rank_tol, tests = knockoffs._rank_tol, []

    def refuse_every_first_probe(n, cond):
        tests.append(n)
        return np.inf if len(tests) % 2 else rank_tol(n, cond)

    monkeypatch.setattr(knockoffs, "_rank_tol", refuse_every_first_probe)
    memory = run_knockoff_filter(Dataset.from_arrays(x, y), q=0.2)
    reports = [run_knockoff_filter(ds, q=0.2).report for ds in (streamed, compressed, piped)]
    for report in reports:
        assert report.selected == memory.report.selected != frozenset()
        assert np.allclose(report.w.w, memory.report.w.w, rtol=1e-9, atol=1e-12)
    # a loaded design's refined probe is folded in blocks on every path: the same bits
    for report in reports[1:]:
        _assert_same_bits(report.w.w, reports[0].w.w)
        assert report.threshold_t == reports[0].threshold_t
    assert len(tests) == 8  # two passes per run
    # one more pass over each file, for W - X m; the pipe's rows are kept
    assert [np.shape(m) for m in passes] == [(), (), (p, p), (p, p)]


def test_a_design_file_that_changed_after_the_load_is_refused_at_its_second_probe(
    tmp_path, monkeypatch
):
    xp, yp = _write_design_csv(tmp_path, 400, 5)
    ds = load_dataset(xp, yp)
    with open(xp, "a", encoding="utf-8") as f:
        f.write("0.5,0.5,0.5,0.5,0.5\n" * 3)
    # every pass is refused, so the filter reads the file again to refine the probe
    monkeypatch.setattr(knockoffs, "_rank_tol", lambda n, cond: np.inf)
    with pytest.raises(ParseError, match=f"^design file {re.escape(xp)} changed while it was read$"):
        run_knockoff_filter(ds, q=0.2)


def test_a_design_file_rewritten_with_its_shape_is_refused_at_the_refinement(
    tmp_path, monkeypatch
):
    # n and p are the record's; its X^T X, X^T y and largest row norm are not
    xp, yp = _write_design_csv(tmp_path, 400, 5)
    ds = load_dataset(xp, yp)
    np.savetxt(xp, np.random.default_rng(1).standard_normal((400, 5)), delimiter=",", fmt="%.6f")
    monkeypatch.setattr(knockoffs, "_rank_tol", lambda n, cond: np.inf)
    with pytest.raises(ParseError, match=f"^design file {re.escape(xp)} changed while it was read$"):
        run_knockoff_filter(ds, q=0.2)


# -- the shape rule: no p x p sum for a design that cannot be a record ------

SHAPE_CASES = {
    # name: (n, p, response entries, error, its text)
    "short_and_wide": (6, 3000, 6, InvalidDesign, "n=6 < 2p=6000: a knockoff copy needs "
                       "at least twice as many samples as features"),
    "transposed": (40, 1000, 1000, DimensionMismatch,
                   "response has 1000 entries but design has 40 rows"),
    "short_response": (3000, 50, 2000, DimensionMismatch,
                       "response has 2000 entries but design has 3000 rows"),
}


@pytest.fixture(scope="module")
def shape_files(tmp_path_factory):
    files = {}
    for i, (name, (n, p, n_y, *_)) in enumerate(sorted(SHAPE_CASES.items())):
        rng = np.random.default_rng(60 + i)
        x, y = rng.standard_normal((n, p)), rng.standard_normal(n_y)
        root = tmp_path_factory.mktemp(name)
        xp, yp = root / "x.csv", root / "y.csv"
        np.savetxt(xp, x, delimiter=",", fmt="%.9g")
        np.savetxt(yp, y, fmt="%.9g")
        with gzip.open(root / "x.csv.gz", "wb") as f:
            f.write(xp.read_bytes())
        files[name] = (x, y, str(xp), str(yp))
    return files


def _fail(*args):
    raise OSError("the stream failed")


@pytest.mark.parametrize("path", [
    "from_arrays", "stream_1cpu", "stream_2cpus", "serial_fallback", "gz", "fifo", "calibrate",
])
@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_a_refused_shape_forms_no_gram_on_any_path(shape_files, monkeypatch, fifo_of, case, path):
    _, p, _, error, text = SHAPE_CASES[case]
    x, y, xp, yp = shape_files[case]
    _cpus(monkeypatch, 2 if path == "stream_2cpus" else 1)
    if path == "serial_fallback":
        monkeypatch.setattr(design, "_stream", _fail)
    if path == "fifo":
        xp = fifo_of(xp)
    build = {
        "from_arrays": functools.partial(Dataset.from_arrays, x, y),
        "gz": functools.partial(load_dataset, xp + ".gz", yp),
        "calibrate": functools.partial(design._load_record, xp, yp, False, probe=False),
    }.get(path, functools.partial(load_dataset, xp, yp))
    tracemalloc.start()
    try:
        with pytest.raises(error) as refused:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == text
    # one p x p sum is 8 p^2 bytes; a response of at least 2p entries still
    # allows sums over the rows it covers, so the bound is for a shorter one
    if len(y) < 2 * p:
        assert peak < 16 * p * p, f"peak {peak / (8 * p * p):.2f} x one p x p sum"
    if case == "short_and_wide":  # six rows need no 1024-row block buffer
        assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"
    _assert_no_child_left()


@pytest.mark.parametrize("route", ["stream", "serial_fallback", "gz", "fifo"])
def test_a_library_load_folds_on_one_blas_thread(tmp_path, monkeypatch, fifo_of, route):
    # a library caller's load is pinned as the CLI's is: every fold runs on
    # one thread and the record has the bits of a load under the CLI's pin
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, whose thread controls the load does not look up")
    controls = design._blas_thread_controls()
    assert controls, "numpy's scipy-openblas thread controls were not found"
    get, set_ = controls
    xp, yp = _write_design_csv(tmp_path, 3000, 20, seed=45)
    if route == "serial_fallback":
        monkeypatch.setattr(design, "_stream", _fail)
    if route == "gz":
        with open(xp, "rb") as f, gzip.open(xp + ".gz", "wb") as g:
            g.write(f.read())
    source = {"gz": lambda: xp + ".gz", "fifo": lambda: fifo_of(xp)}.get(route, lambda: xp)
    seen, add = [], design._Sums._add
    before = get()
    set_(2)  # so the pin shows on a one-core host too
    try:
        with design._single_blas_thread():
            pinned = load_dataset(source(), yp)
        monkeypatch.setattr(design._Sums, "_add", lambda *a: seen.append(get()) or add(*a))
        loaded = load_dataset(source(), yp)
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        set_(before)
    _assert_same_record(loaded, pinned)


def test_blas_thread_controls_are_empty_without_their_symbols(monkeypatch):
    # a numpy linked to another BLAS: no controls, and a pin runs its body untouched
    design._blas_thread_controls.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(design, "_BLAS_THREAD_SYMBOLS", ("no_such_get", "no_such_set"))
            assert design._blas_thread_controls() == ()
            with design._single_blas_thread():  # calls no control
                pass
    finally:
        design._blas_thread_controls.cache_clear()  # the real controls are cached again


# -- one outcome per input on every ingest path -------------------------------

_HOSTILE_TOKENS = ["nan", "inf", "-inf", "1e300", "-1e300", "0x1", "1_000", "", "abc", "1.5.2",
                   "1e", "++1", "1,5"]


def _number(rng):
    v = rng.standard_normal() * 10.0 ** rng.integers(-3, 4)
    forms = (str(int(v * 100)), f"{v:+.6f}", repr(float(v)), f"{v:.4e}", f"{v:.3E}", f"{v:.17g}")
    return " " * rng.integers(3) + forms[rng.integers(len(forms))] + " " * rng.integers(2)


@st.composite
def _ingest_cases(draw, max_rows):
    """(design text, response text, header lines) from a small grammar of design files.

    The grammar's choices are drawn; the fields of each row come from a drawn
    seed, so a case of any size costs a few draws.
    """
    p = draw(st.integers(1, 4))
    short = draw(st.integers(0, 7)) == 7  # fewer rows than a record needs, now and then
    n = draw(st.integers(1, 2 * p) if short else st.integers(2 * p, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hostile = draw(st.sampled_from([0.0] * 6 + [0.01, 0.2]))  # share of hostile fields
    ragged = draw(st.sampled_from([0.0] * 6 + [0.02]))  # share of rows one field off
    extra = draw(st.sampled_from([0.0, 0.1, 0.4]))  # blank and comment lines per row
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    skip = int(draw(st.booleans()))
    lines = [",".join(f"c{j}" for j in range(p))] * skip
    for _ in range(n):
        if rng.random() < extra:
            lines.append(["", "# a comment line"][rng.integers(2)])
        width = p + (rng.choice([-1, 1]) if rng.random() < ragged else 0)
        fields = [
            _HOSTILE_TOKENS[rng.integers(len(_HOSTILE_TOKENS))] if rng.random() < hostile
            else _number(rng) for _ in range(max(width, 1))
        ]
        lines.append(",".join(fields) + ("  # trailing" if rng.random() < extra / 4 else ""))
    ends = [["\n", "\r\n", "\r"][rng.integers(3)] if ending == "mixed" else ending for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if not draw(st.booleans()):  # no line end after the last line
        text = text[: len(text) - len(ends[-1])]
    n_y = max(n + draw(st.sampled_from([0] * 6 + [-1, 1, 2, -n])), 0)
    y_text = "resp\n" * skip + "".join(f"{v:.17g}\n" for v in rng.standard_normal(n_y))
    return text, y_text, skip


def _outcome(load, *paths):
    """The record's bits, or the error's class and message with ``paths`` named alike."""
    try:
        ds = load()
    except Exception as exc:
        message = str(exc)
        for path in paths:
            message = message.replace(path, "<design>")
        return type(exc), message
    arrays = (ds.gram, ds.col_norms, ds.xty, ds.y, *ds.probe_products())
    return ds.n, ds.p, repr(ds.row_norm_sq_max), *(a.tobytes() for a in arrays)


def _fifo_load(xp, yp, skip):
    """load_dataset of a FIFO that a thread writes the design file's bytes into."""
    fifo, data = xp + ".fifo", Path(xp).read_bytes()
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return _outcome(lambda: load_dataset(fifo, yp, has_header=bool(skip)), fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive(), "the FIFO was never read"


def _loadtxt_record(xp, yp, skip):
    """The outcome of Dataset.from_arrays of one np.loadtxt of each file, where
    both parse to rows; None elsewhere."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            x = np.loadtxt(xp, delimiter=",", skiprows=skip, ndmin=2, dtype=float)
            y = np.loadtxt(yp, skiprows=skip, ndmin=2, dtype=float)
        except ValueError:
            return None
    if not len(x) or not len(y):  # no rows: refused by file name
        return None
    return _outcome(functools.partial(Dataset.from_arrays, x, y.ravel()))


def _check_ingest_paths(case):
    text, y_text, skip = case
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as m:
        xp, yp = os.path.join(root, "x.csv"), os.path.join(root, "y.csv")
        Path(xp).write_bytes(text.encode())
        Path(yp).write_bytes(y_text.encode())
        with gzip.open(xp + ".gz", "wb") as f:
            f.write(text.encode())
        load = functools.partial(load_dataset, has_header=bool(skip))
        outcomes = {}
        for cpus, chunk_bytes in itertools.product((1, 2, 3, 4), CHUNK_BYTES):
            _cpus(m, cpus)
            m.setattr(design, "_CHUNK_BYTES", chunk_bytes)
            outcomes[f"stream {cpus} cpus, {chunk_bytes}-byte chunks"] = _outcome(
                lambda: load(xp, yp), xp)
        outcomes["gz"] = _outcome(lambda: load(xp + ".gz", yp), xp + ".gz")
        outcomes["fifo"] = _fifo_load(xp, yp, skip)
        with pytest.MonkeyPatch.context() as fork:
            _fork_fails(fork)
            outcomes["fork fails"] = _outcome(lambda: load(xp, yp), xp)
        m.setattr(design, "_stream", _fail)
        serial = outcomes["serial fallback"] = _outcome(lambda: load(xp, yp), xp)
        reference = _loadtxt_record(xp, yp, skip)
        if reference is not None:
            outcomes["from_arrays of np.loadtxt"] = reference
    assert {k: v for k, v in outcomes.items() if v != serial} == {}
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="reads a design from a FIFO")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ingest_cases(max_rows=40))
def test_every_ingest_path_gives_one_outcome(case):
    _check_ingest_paths(case)


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="reads a design from a FIFO")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ingest_cases(max_rows=3000))
def test_every_ingest_path_gives_one_outcome_at_scale(case):
    _check_ingest_paths(case)
