"""Panel dataset construction, design augmentation, and CSV round-trips."""

import csv
import dataclasses
import random

import numpy as np
import pytest

from spboost.errors import (
    AlignmentError,
    FixedEffectsInfeasibleError,
    ParseError,
    UnbalancedPanelError,
    ValidationError,
)
from spboost.panel import (
    INTERCEPT_NAME,
    LAG_PREFIX,
    AugmentedDesign,
    Effects,
    Family,
    ModelSpec,
    PanelDataset,
    augment_design,
    read_panel_csv,
    spatial_lag,
    write_panel_csv,
)
from spboost.pipeline import standardize_regressors
from spboost.weights import SpatialWeights, build_knn_weights

from conftest import dense_lag, make_panel, make_weights


def small_panel(n=3, t=2, p=2, **kw):
    return make_panel(n, t, p, **kw)


# ---------------------------------------------------------------------------
# PanelDataset validation


def test_dataset_shape_and_stacking():
    data = small_panel(n=4, t=3, p=2)
    assert data.n_locations == 4
    assert data.n_periods == 3
    assert data.n_obs == 12
    assert data.response.shape == (12,)
    assert data.regressors.shape == (12, 2)


def test_dataset_arrays_are_read_only():
    data = small_panel()
    with pytest.raises(ValueError):
        data.response[0] = 99.0
    with pytest.raises(ValueError):
        data.regressors[0, 0] = 99.0


def test_dataset_rejects_duplicate_location_ids():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "A"),
            period_ids=("1", "2"),
        )


def test_dataset_rejects_duplicate_period_ids():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "1"),
        )


def test_dataset_rejects_wrong_response_length():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(5),
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
        )


def test_dataset_rejects_name_count_mismatch():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 2)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
        )


def test_dataset_rejects_duplicate_regressor_names():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 2)),
            regressor_names=("x1", "x1"),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
        )


def test_dataset_rejects_non_finite_entries():
    y = np.zeros(4)
    y[2] = np.nan
    with pytest.raises(ValidationError):
        PanelDataset(
            response=y,
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
        )
    x = np.zeros((4, 1))
    x[1, 0] = np.inf
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=x,
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
        )


def test_dataset_rejects_bad_centroids():
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
            centroids=np.zeros((3, 2)),
        )
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        PanelDataset(
            response=np.zeros(4),
            regressors=np.zeros((4, 1)),
            regressor_names=("x1",),
            location_ids=("A", "B"),
            period_ids=("1", "2"),
            centroids=bad,
        )


# ---------------------------------------------------------------------------
# ModelSpec


def test_model_spec_coerces_strings():
    spec = ModelSpec(family="kkp", effects="random")
    assert spec.family is Family.KKP
    assert spec.effects is Effects.RANDOM


def test_model_spec_fixed_effects_forbids_intercept():
    with pytest.raises(FixedEffectsInfeasibleError) as err:
        ModelSpec(effects=Effects.FIXED, include_intercept=True)
    assert err.value.column == INTERCEPT_NAME


# ---------------------------------------------------------------------------
# spatial_lag


def test_spatial_lag_matches_dense_kronecker(rng):
    n, t, p = 5, 2, 3
    w, _ = make_weights(n, seed=3, k=2)
    x = rng.normal(size=(n * t, p))
    dense = dense_lag(w, t) @ x
    assert np.allclose(spatial_lag(x, w, t), dense, atol=1e-12)


def test_spatial_lag_vector_matches_matrix(rng):
    n, t = 6, 3
    w, _ = make_weights(n, seed=1, k=2)
    v = rng.normal(size=n * t)
    as_vec = spatial_lag(v, w, t)
    as_mat = spatial_lag(v[:, None], w, t)[:, 0]
    assert np.allclose(as_vec, as_mat, atol=1e-14)
    assert as_vec.shape == (n * t,)


def test_spatial_lag_of_constant_is_constant():
    # Row sums of one map a constant column to itself.
    n, t = 7, 2
    w, _ = make_weights(n, seed=2, k=3)
    const = np.full((n * t, 1), 4.25)
    assert np.allclose(spatial_lag(const, w, t), const, atol=1e-12)


def test_spatial_lag_permutes_indicator():
    # Two locations that only point at each other swap indicator columns.
    w = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ind = np.array([[1.0], [0.0]])
    assert np.allclose(spatial_lag(ind, w, 1), [[0.0], [1.0]])


def _ragged_sparse_weights(rng, n):
    """Random weights with 0 to n/10 neighbours a row, some rows normalized."""
    w = np.zeros((n, n))
    for i in range(n):
        others = np.delete(np.arange(n), i)
        size = int(rng.integers(0, n // 10 + 1))
        w[i, rng.choice(others, size=size, replace=False)] = rng.uniform(0.01, 1.0, size=size)
    if rng.uniform() < 0.5:
        sums = w.sum(axis=1, keepdims=True)
        w = np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)
    return w


def test_spatial_lag_is_bitwise_the_einsum_on_ragged_sparse_weights():
    lagged = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, t, p = int(rng.integers(10, 400)), int(rng.integers(1, 6)), int(rng.integers(1, 25))
        w = _ragged_sparse_weights(rng, n)
        # columns on scales from 1e-3 to 1e3, signs mixed
        x = rng.normal(size=(n * t, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
        reference = np.einsum("ij,tjk->tik", w, x.reshape(t, n, p)).reshape(n * t, p)
        got = spatial_lag(x, SpatialWeights(w), t)
        assert np.array_equal(got.view(np.int64), reference.view(np.int64)), seed
        lagged += p > 1 and SpatialWeights(w)._neighbour_table() is not None
    assert lagged >= 40


def test_spatial_lag_neighbour_table_lists_ascending_nonzero_columns():
    w = np.array(
        [[0.0, 0.0, 0.5, 0.5] + [0.0] * 16, [0.3] + [0.0] * 18 + [0.7]]
        + [[0.0] * 20] * 18
    )
    columns, coefs = SpatialWeights(w)._neighbour_table()
    assert columns[:, :2].tolist() == [[2, 0], [3, 19]]
    assert coefs[:, :2].tolist() == [[0.5, 0.3], [0.5, 0.7]]
    assert not coefs[:, 2:].any()
    # a row with more than n/10 neighbours leaves the einsum in charge
    w[5, 1:4] = 1.0
    assert SpatialWeights(w)._neighbour_table() is None


def _dense_neighbour_table(matrix):
    """The neighbour table by a scan of the dense matrix."""
    n = matrix.shape[0]
    flat = np.flatnonzero(matrix != 0)
    rows, cols = np.divmod(flat, n)
    degree = np.bincount(rows, minlength=n)
    width = int(degree.max()) if flat.size else 0
    if 10 * width > n:
        return None
    slot = np.arange(flat.size) - np.repeat(np.cumsum(degree) - degree, degree)
    columns = np.zeros((width, n), dtype=np.intp)
    coefs = np.zeros((width, n))
    columns[slot, rows] = cols
    coefs[slot, rows] = matrix.ravel()[flat]
    return columns, coefs


def test_neighbour_table_from_stored_entries_is_the_dense_scan_slot_for_slot():
    tables = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 300))
        w = _ragged_sparse_weights(rng, n)
        # -0.0 weights are stored entries but no neighbours
        w[rng.integers(n, size=3), rng.integers(n, size=3)] = -0.0
        for weights in (SpatialWeights(w), build_knn_weights(rng.uniform(size=(n, 2)), 1 + n // 20)):
            want = _dense_neighbour_table(weights.matrix)
            got = weights._neighbour_table()
            assert (got is None) == (want is None), seed
            if want is not None:
                tables += 1
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), seed
    assert tables >= 60


def test_spatial_lag_keeps_the_einsum_for_one_column_and_dense_weights(monkeypatch):
    rng = np.random.default_rng(4)
    n, t = 60, 3
    sparse = SpatialWeights(_ragged_sparse_weights(rng, n))
    dense = SpatialWeights(rng.uniform(size=(n, n)) * (1 - np.eye(n)))
    calls = []
    real = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    one = rng.normal(size=(n * t, 1))
    for w, x in ((sparse, one), (dense, rng.normal(size=(n * t, 4)))):
        expected = real("ij,tjk->tik", w.matrix, x.reshape(t, n, -1)).reshape(x.shape)
        assert np.array_equal(spatial_lag(x, w, t), expected)
    assert calls == ["ij,tjk->tik"] * 2
    spatial_lag(rng.normal(size=(n * t, 3)), sparse, t)
    assert len(calls) == 2


def test_spatial_lag_rejects_wrong_row_count():
    w, _ = make_weights(4, seed=0, k=2)
    with pytest.raises(ValidationError):
        spatial_lag(np.zeros(9), w, 2)


# ---------------------------------------------------------------------------
# augment_design


def test_augment_design_column_order_and_roles():
    data = small_panel(n=4, t=2, p=3, seed=7)
    w, _ = make_weights(4, seed=7, k=2)
    design = augment_design(data, w, ModelSpec())
    assert design.names == (
        INTERCEPT_NAME,
        "x1",
        "x2",
        "x3",
        LAG_PREFIX + "x1",
        LAG_PREFIX + "x2",
        LAG_PREFIX + "x3",
    )
    assert design.n_columns == 2 * 3 + 1
    assert np.all(design.columns[:, 0] == 1.0)
    assert np.allclose(design.columns[:, 1:4], data.regressors)


def test_augment_design_lag_block_matches_dense_oracle():
    data = small_panel(n=5, t=2, p=3, seed=11)
    w, _ = make_weights(5, seed=11, k=2)
    design = augment_design(data, w, ModelSpec())
    dense = dense_lag(w, data.n_periods) @ data.regressors
    assert np.allclose(design.columns[:, 4:], dense, atol=1e-12)


def test_augment_design_without_intercept_or_lags():
    data = small_panel(n=3, t=2, p=2)
    w, _ = make_weights(3, seed=0, k=1)
    plain = augment_design(
        data, w, ModelSpec(include_intercept=False, include_spatial_lags=False)
    )
    assert plain.names == ("x1", "x2")
    assert np.allclose(plain.columns, data.regressors)


def test_augment_design_rejects_size_mismatch():
    data = small_panel(n=4, t=2, p=1)
    w, _ = make_weights(5, seed=0, k=2)
    with pytest.raises(ValidationError):
        augment_design(data, w, ModelSpec())


def test_augment_design_rejects_intercept_name_clash():
    data = PanelDataset(
        response=np.zeros(4),
        regressors=np.ones((4, 1)),
        regressor_names=(INTERCEPT_NAME,),
        location_ids=("A", "B"),
        period_ids=("1", "2"),
    )
    w = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        augment_design(data, w, ModelSpec())


def test_augment_design_rejects_lag_name_clash():
    data = PanelDataset(
        response=np.zeros(4),
        regressors=np.random.default_rng(0).normal(size=(4, 2)),
        regressor_names=("x1", LAG_PREFIX + "x1"),
        location_ids=("A", "B"),
        period_ids=("1", "2"),
    )
    w = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        augment_design(data, w, ModelSpec())


def test_fixed_effects_rejects_time_invariant_column():
    n, t = 3, 3
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n * t, 2))
    x[:, 1] = np.tile(np.array([1.0, 2.0, 3.0]), t)  # constant over time per location
    data = PanelDataset(
        response=rng.normal(size=n * t),
        regressors=x,
        regressor_names=("x1", "frozen"),
        location_ids=("A", "B", "C"),
        period_ids=("1", "2", "3"),
    )
    w, _ = make_weights(n, seed=5, k=1)
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    with pytest.raises(FixedEffectsInfeasibleError) as err:
        augment_design(data, w, spec)
    assert err.value.column == "frozen"


def test_fixed_effects_needs_two_periods():
    data = small_panel(n=3, t=1, p=1)
    w, _ = make_weights(3, seed=0, k=1)
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    with pytest.raises(ValidationError):
        augment_design(data, w, spec)


def test_augmented_design_rejects_misaligned_names():
    with pytest.raises(AlignmentError):
        AugmentedDesign(np.zeros((4, 2)), names=("a",))


# ---------------------------------------------------------------------------
# CSV round-trip


def test_panel_csv_round_trip(tmp_path):
    data = small_panel(n=4, t=3, p=2, seed=9, with_centroids=False)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, data)
    back = read_panel_csv(path)
    assert back.location_ids == data.location_ids
    assert back.period_ids == data.period_ids
    assert back.regressor_names == data.regressor_names
    assert np.array_equal(back.response, data.response)
    assert np.array_equal(back.regressors, data.regressors)


def test_read_panel_csv_orders_by_first_appearance(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "location,period,y,x1\n"
        "B,2001,1.0,0.1\n"
        "A,2001,2.0,0.2\n"
        "B,2000,3.0,0.3\n"
        "A,2000,4.0,0.4\n"
    )
    data = read_panel_csv(path)
    assert data.location_ids == ("B", "A")
    assert data.period_ids == ("2001", "2000")
    # Stacked index is location + N * period under the discovered orders.
    assert data.response[0] == 1.0  # (B, 2001)
    assert data.response[1] == 2.0  # (A, 2001)
    assert data.response[2] == 3.0  # (B, 2000)
    assert data.response[3] == 4.0  # (A, 2000)


def test_read_panel_csv_bad_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("loc,period,y\nA,1,0.0\n")
    with pytest.raises(ParseError) as err:
        read_panel_csv(path)
    assert err.value.row == 1


def test_read_panel_csv_bad_value_reports_row(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("location,period,y,x1\nA,1,0.0,1.0\nB,1,oops,1.0\n")
    with pytest.raises(ParseError) as err:
        read_panel_csv(path)
    assert err.value.row == 3


def test_read_panel_csv_field_count_reports_row(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("location,period,y,x1\nA,1,0.0,1.0\nB,1,2.0\n")
    with pytest.raises(ParseError) as err:
        read_panel_csv(path)
    assert err.value.row == 3


def test_read_panel_csv_duplicate_observation(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "location,period,y,x1\nA,1,0.0,1.0\nA,1,5.0,2.0\n"
    )
    with pytest.raises(UnbalancedPanelError):
        read_panel_csv(path)


def test_read_panel_csv_missing_observation(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "location,period,y,x1\nA,1,0.0,1.0\nB,1,1.0,1.0\nA,2,2.0,1.0\n"
    )
    with pytest.raises(UnbalancedPanelError) as err:
        read_panel_csv(path)
    assert "B" in str(err.value)


def test_read_panel_csv_empty_and_header_only(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_panel_csv(path)
    path.write_text("location,period,y,x1\n")
    with pytest.raises(ParseError):
        read_panel_csv(path)


def test_read_panel_csv_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one
    text = "location,period,y,x1\nZürich,1,0.5,1.0\nBern,1,1.5,2.0\nZürich,2,2.5,3.0\nBern,2,3.5,4.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    a, b = read_panel_csv(plain), read_panel_csv(marked)
    assert a.location_ids == b.location_ids == ("Zürich", "Bern")
    assert (a.period_ids, a.regressor_names) == (b.period_ids, b.regressor_names)
    assert np.array_equal(a.response, b.response)
    assert np.array_equal(a.regressors, b.regressors)


def test_read_panel_csv_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes("location,period,y\nOrléans,1,0.5\nBern,1,1.5\n".encode("latin-1"))
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        read_panel_csv(path)


def test_standardize_leaves_a_constant_column_untouched():
    data = small_panel(n=4, t=3)
    x = data.regressors.copy()
    x[:, 1] = 2.5
    data = dataclasses.replace(data, regressors=x)
    with pytest.warns(UserWarning, match=r"constant column\(s\) left unstandardized: \['x2'\]"):
        scaled = standardize_regressors(data).regressors
    assert scaled[:, 1].tobytes() == x[:, 1].tobytes()
    assert abs(scaled[:, 0].mean()) < 1e-12 and abs(scaled[:, 0].std() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# The reader against the row-by-row reference


def read_panel_csv_by_rows(path):
    """The reader that kept one Python list of floats per record in a dict."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", row=1)
        header = [c.strip() for c in header]
        if header[:3] != ["location", "period", "y"]:
            raise ParseError("expected header to start with 'location,period,y'", row=1)
        xnames = header[3:]
        if len(set(xnames)) != len(xnames):
            raise ParseError("duplicate regressor names in header", row=1)
        records = {}
        loc_order, per_order = [], []
        loc_seen, per_seen = set(), set()
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(rec)}", row=rownum)
            loc, per = rec[0].strip(), rec[1].strip()
            try:
                yval = float(rec[2])
                xvals = [float(v) for v in rec[3:]]
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            key = (loc, per)
            if key in records:
                raise UnbalancedPanelError(
                    f"duplicate observation for location {loc!r}, period {per!r} "
                    f"at row {rownum}"
                )
            records[key] = (yval, xvals)
            if loc not in loc_seen:
                loc_seen.add(loc)
                loc_order.append(loc)
            if per not in per_seen:
                per_seen.add(per)
                per_order.append(per)
    n, t = len(loc_order), len(per_order)
    if n == 0:
        raise ParseError("file contains a header but no data rows", row=2)
    if len(records) != n * t:
        for per in per_order:
            for loc in loc_order:
                if (loc, per) not in records:
                    raise UnbalancedPanelError(
                        f"missing observation for location {loc!r}, period {per!r}"
                    )
    y = np.empty(n * t)
    x = np.empty((n * t, len(xnames)))
    for ti, per in enumerate(per_order):
        for li, loc in enumerate(loc_order):
            yval, xvals = records[(loc, per)]
            y[li + n * ti] = yval
            x[li + n * ti] = xvals
    return PanelDataset(
        response=y,
        regressors=x,
        regressor_names=tuple(xnames),
        location_ids=tuple(loc_order),
        period_ids=tuple(per_order),
    )


def read_outcome(reader, path):
    """Labels and array bytes (so -0.0 counts), or the error's type, text and row."""
    try:
        data = reader(path)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return (
        data.location_ids,
        data.period_ids,
        data.regressor_names,
        data.response.tobytes(),
        data.regressors.tobytes(),
    )


def assert_reads_like_reference(path):
    want = read_outcome(read_panel_csv_by_rows, path)
    assert read_outcome(read_panel_csv, path) == want
    return want


def test_reader_matches_reference_on_round_trip_and_shuffled_rows(tmp_path):
    data = make_panel(30, 4, 5, seed=3, with_centroids=False)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, data)
    want = assert_reads_like_reference(path)
    assert want[3] == data.response.tobytes() and want[4] == data.regressors.tobytes()
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]
    for seed in range(3):
        random.Random(seed).shuffle(rows)
        shuffled = tmp_path / f"shuffled{seed}.csv"
        shuffled.write_bytes(b"\n".join([header, *rows]) + b"\n")
        labels = assert_reads_like_reference(shuffled)[:2]
        assert sorted(labels[0]) == sorted(data.location_ids)


def test_reader_matches_reference_beyond_sixteen_locations_and_periods(tmp_path):
    # 19 locations by 18 periods with the rows shuffled, so new labels of
    # both kinds keep arriving through the file
    data = make_panel(19, 18, 2, seed=5, with_centroids=False)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, data)
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]
    random.Random(7).shuffle(rows)
    variants = {
        "shuffled": rows,
        "duplicate": rows[:200] + [rows[150]] + rows[200:],
        "missing": rows[:50] + rows[51:100] + rows[101:],
    }
    outcomes = {}
    for name, lines in variants.items():
        variant = tmp_path / f"{name}.csv"
        variant.write_bytes(b"\n".join([header, *lines]) + b"\n")
        outcomes[name] = assert_reads_like_reference(variant)
    assert (len(outcomes["shuffled"][0]), len(outcomes["shuffled"][1])) == (19, 18)
    assert outcomes["duplicate"][0] is UnbalancedPanelError
    assert outcomes["duplicate"][1].endswith("at row 202")
    assert outcomes["missing"][0] is UnbalancedPanelError


HEADER = "location,period,y,x1\n"

ACCEPTED = {
    "quoted-labels": (
        HEADER + '"a,b",1,1.0,2.0\n"say ""hi""",1,3.0,4.0\n"a,b",2,5.0,6.0\n'
        '"say ""hi""",2,7.0,8.0\n'
    ),
    "label-spanning-lines": (
        HEADER + '"two\nlines",1,1.0,2.0\nb,1,3.0,4.0\n"two\nlines",2,5.0,6.0\n'
        "b,2,7.0,8.0\n"
    ),
    "whitespace": HEADER + " a , 1 , 1.5 ,\t2\nb,1,  -3 ,4.25  \n",
    "exponents-and-underscores": HEADER + "a,1,1e-300,2.5E+10\nb,1,-7e5,1_000.5\n",
    "signed-zero-and-subnormals": (
        HEADER + "a,1,-0.0,5e-324\nb,1,0.0,2.2250738585072014e-309\nc,1,-4.9e-324,-0\n"
    ),
    "crlf-and-bare-cr": "location,period,y,x1\r\na,1,1,2\rb,1,3,4\r\na,2,5,6\rb,2,7,8",
    "extra-blank-free-last-line": HEADER + "a,1,1,2\nb,1,3,4",
}

REFUSED = {
    "nan": HEADER + "a,1,nan,2\nb,1,3,4\n",
    "inf": HEADER + "a,1,1,-inf\nb,1,3,Infinity\n",
    "bad-value": HEADER + "a,1,1,2\nb,1,oops,4\n",
    "empty-value": HEADER + "a,1,1,\n",
    "field-count": HEADER + "a,1,1,2\nb,1,3\n",
    "blank-line": HEADER + "a,1,1,2\n\nb,1,3,4\n",
    "duplicate": HEADER + "a,1,1,2\nb,1,3,4\n a ,1,5,6\n",
    "duplicate-before-bad-value": HEADER + "a,1,1,2\na,1,3,4\nb,1,x,4\n",
    "bad-value-before-duplicate": HEADER + "a,1,1,2\nb,1,x,4\na,1,3,4\n",
    "missing": HEADER + "a,1,1,2\nb,1,3,4\nc,2,5,6\na,2,7,8\n",
    "missing-period": HEADER + "a,1,1,2\nb,2,3,4\n",
    "bad-header": "loc,period,y\na,1,0.0\n",
    "duplicate-regressor-names": "location,period,y,x,x\na,1,1,2,3\n",
    "header-only": HEADER,
    "empty": "",
}


@pytest.mark.parametrize("text", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_reader_matches_reference_on_accepted_files(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    outcome = assert_reads_like_reference(path)
    assert isinstance(outcome[0], tuple)


@pytest.mark.parametrize("text", REFUSED.values(), ids=REFUSED.keys())
def test_reader_matches_reference_on_refused_files(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    outcome = assert_reads_like_reference(path)
    assert issubclass(outcome[0], ValidationError)
