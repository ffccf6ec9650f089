import functools
import gzip
import os
import re
import tracemalloc

import numpy as np
import pytest

from dpknockoff import (
    BoundViolation,
    Dataset,
    DimensionMismatch,
    InvalidDesign,
    ParseError,
    load_dataset,
)
from dpknockoff import design
from dpknockoff.design import compute_bounds
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
    assert np.allclose(ds.x, x) and np.allclose(ds.y, y)


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
    def no_gram(x):
        raise AssertionError("a refused shape must not form X^T X")

    monkeypatch.setattr(design, "_raw_gram", no_gram)
    with pytest.raises(InvalidDesign, match="n=4 < 2p"):
        Dataset.from_arrays(np.ones((4, 3)), np.ones(4))
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(np.ones((8, 3)), np.ones(7))


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
        match=rf"B={override!r} is below the observed maximum row norm 1\.0;",
    ):
        compute_bounds(_block_design(), row_bound_override=override)
    # at or above the largest row norm, an override is a worst-case bound
    for b in (1.0, 1.5):
        assert compute_bounds(_block_design(), row_bound_override=b).row_bound_B == b


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
    for array in (ds.x, ds.y, ds.gram, ds.col_norms, ds.normalizer_d):
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


# -- the design parsed in forked, newline-aligned parts ---------------------

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the split parse reads os.sched_getaffinity"
)


def _serial_design(path, skip=0):
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, dtype=float)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


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


@needs_affinity
@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_parse_is_bit_identical_to_one_loadtxt(tmp_path, monkeypatch, case, cpus):
    text, skip = SPLIT_CASES[case]
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    _cpus(monkeypatch, cpus)
    x = design._parse_in_parts(str(path), skip)
    assert x is not None, "the split did not run"
    _assert_same_bits(x, _serial_design(str(path), skip))
    _assert_no_child_left()


@needs_affinity
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
    x = design._parse_in_parts(str(path), 0)
    serial = _serial_design(str(path))
    if cpus == 2:
        assert x is None
        x = design._parse_design(str(path), 0)
    _assert_same_bits(x, serial)
    assert x.shape == (60, 3)


@needs_affinity
def test_split_parse_leaves_a_compressed_design_to_loadtxt(tmp_path, monkeypatch):
    # np.loadtxt decompresses a .gz by name; its bytes are not the design's lines
    path = tmp_path / "x.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write("\n".join(_rows(80, 3)) + "\n")
    _cpus(monkeypatch, 4)
    assert design._parse_in_parts(str(path), 0) is None
    _assert_same_bits(design._parse_design(str(path), 0), _serial_design(str(path)))


@needs_affinity
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


def _parse_fails_in_children(monkeypatch, failure):
    parent = os.getpid()
    real = design._parse_range

    def parse_range(*args):
        if os.getpid() != parent:
            raise failure
        return real(*args)

    monkeypatch.setattr(design, "_parse_range", parse_range)
    # no SIGKILL: a child that escaped os._exit runs on into the test and is seen there
    monkeypatch.setattr(os, "kill", lambda pid, sig: None)


def _fork_fails(monkeypatch):
    def fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)


@needs_affinity
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
    _assert_same_bits(ds.x, _serial_design(xp))
    _assert_no_child_left()
    assert _open_fds() == fds
