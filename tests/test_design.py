import functools
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
