import tracemalloc

import numpy as np
import pytest

from spboost.crossval import FoldKind, FoldPlan
from spboost.errors import (
    DegenerateGeometryError,
    IsolatedUnitError,
    ParseError,
    ValidationError,
)
from spboost.gmm import MomentSystem, ResidualTriple
from spboost.panel import AugmentedDesign, Effects, PanelDataset
from spboost.transform import TransformedData
from spboost.weights import (
    DENSE_LIMIT,
    SpatialWeights,
    _frozen,
    _read_only,
    build_knn_weights,
    read_centroid_csv,
    read_neighbor_csv,
    row_normalize,
)


def test_rows_sum_to_one_when_normalized():
    # k-nearest-neighbour weights come row-normalized: k weights of 1/k a row
    pts = np.random.default_rng(8).uniform(size=(30, 2))
    for k in (1, 3, 7, 29):
        m = build_knn_weights(pts, k).matrix
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12), k
        assert np.array_equal(np.count_nonzero(m, axis=1), np.full(30, k)), k
        assert np.all(m[m != 0] == 1.0 / k), k


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.array([[0.1, 0.9], [1.0, 0.0]]))


def test_negative_entry_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_nonsquare_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.zeros((2, 3)))


def test_matrix_is_read_only():
    w = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 2.0


def _frozen_records():
    """Each frozen record, as (its caller arrays, a builder from them, the
    names of its stored arrays); the weights come Fortran-ordered."""
    rng = np.random.default_rng(21)
    n, t = 3, 2
    weights = np.asfortranarray([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    moments = rng.normal(size=(3, 3))
    moments[:, 2] = (1.0, 0.4, 0.0)
    return {
        "SpatialWeights": ([weights], SpatialWeights, ["matrix"]),
        "PanelDataset": (
            [rng.normal(size=n * t), rng.normal(size=(n * t, 2)), rng.normal(size=(n, 2))],
            lambda y, x, c: PanelDataset(y, x, ("x1", "x2"), ("a", "b", "c"), ("1", "2"), c),
            ["response", "regressors", "centroids"],
        ),
        "AugmentedDesign": (
            [rng.normal(size=(n * t, 2))],
            lambda z: AugmentedDesign(z, ("x1", "x2")),
            ["columns"],
        ),
        "TransformedData": (
            [rng.normal(size=n * t), rng.normal(size=(n * t, 2))],
            lambda y, z: TransformedData(y, z, ("x1", "x2"), Effects.RANDOM, "f"),
            ["response", "design"],
        ),
        "FoldPlan": (
            [np.repeat(np.arange(t), n)],
            lambda a: FoldPlan(FoldKind.TIME, t, a, n, t),
            ["assignment"],
        ),
        "MomentSystem": (
            [moments, rng.normal(size=3)],
            lambda m, v: MomentSystem(m, v, "idiosyncratic"),
            ["matrix", "vector"],
        ),
        "ResidualTriple": (
            [rng.normal(size=n * t) for _ in range(3)],
            ResidualTriple,
            ["residuals", "lagged", "double_lagged"],
        ),
    }


@pytest.mark.parametrize("name", list(_frozen_records()))
def test_frozen_records_own_read_only_c_ordered_copies(name):
    arrays, build, fields = _frozen_records()[name]
    record = build(*arrays)
    stored = [getattr(record, field) for field in fields]
    snapshot = [a.tobytes() for a in stored]
    for caller in arrays:
        caller[...] = 0
    for field, array, before in zip(fields, stored, snapshot):
        assert array.flags.c_contiguous and not array.flags.writeable, field
        assert array.tobytes() == before, field
        with pytest.raises(ValueError):
            array[...] = 1
    if name == "MomentSystem":
        assert (record.degenerate, record.trace_ratio) == (False, 0.4)
    if name == "FoldPlan":
        assert record.assignment.dtype == np.int64


def test_read_only_keeps_a_frozen_array_and_copies_a_frozen_view():
    # a builder freezes what it made and hands it over without a copy; a
    # read-only view of a writable array could still change, so it is copied
    made = _frozen(np.arange(6.0).reshape(2, 3).copy())
    assert _read_only(made) is made
    base = np.arange(6.0)
    view = base.reshape(2, 3)
    view.setflags(write=False)
    kept = _read_only(view)
    base[0] = 9.0
    assert kept is not view and kept[0, 0] == 0.0
    assert _read_only(made, dtype=np.int64).dtype == np.int64


def test_row_normalize_proportional_scaling():
    raw = SpatialWeights(np.array([[0.0, 2.0, 2.0],
                                   [0.0, 0.0, 1.0],
                                   [0.0, 1.0, 0.0]]))
    out = row_normalize(raw)
    assert np.allclose(out.matrix[0], [0.0, 0.5, 0.5])
    assert np.allclose(out.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_row_normalize_uneven_row():
    raw = SpatialWeights(np.array([[0.0, 1.0, 3.0],
                                   [1.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0]]))
    out = row_normalize(raw)
    assert np.allclose(out.matrix[0], [0.0, 0.25, 0.75])


def test_row_normalize_idempotent():
    raw = SpatialWeights(np.array([[0.0, 2.0, 2.0],
                                   [0.0, 0.0, 4.0],
                                   [5.0, 0.0, 0.0]]))
    once = row_normalize(raw)
    twice = row_normalize(once)
    assert np.allclose(once.matrix, twice.matrix, atol=1e-12)


def test_row_normalize_isolated_location():
    raw = SpatialWeights(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(IsolatedUnitError):
        row_normalize(raw)


def test_knn_collinear_tie_broken_by_lower_index():
    # three equally spaced points on a line: the middle one is equidistant
    # from both ends, so with k=1 the tie goes to the lower index
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    w = build_knn_weights(pts, 1)
    assert w.matrix[1, 0] == 1.0
    assert w.matrix[1, 2] == 0.0
    assert np.allclose(w.matrix.sum(axis=1), 1.0)


def test_knn_unit_square_corners():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = build_knn_weights(pts, 2)
    expected = np.array([
        [0.0, 0.5, 0.5, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0],
    ])
    assert np.allclose(w.matrix, expected)


def test_knn_matches_brute_force_sort():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    w = build_knn_weights(pts, 10)
    assert np.all(np.count_nonzero(w.matrix, axis=1) == 10)
    assert np.allclose(w.matrix[w.matrix > 0], 0.1)
    # independent nearest-neighbor computation
    for i in range(100):
        d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        nearest = set(np.argsort(d)[:10])
        assert set(np.flatnonzero(w.matrix[i])) == nearest


def test_knn_k_too_large():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        build_knn_weights(pts, 2)


def test_knn_duplicate_centroids():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        build_knn_weights(pts, 1)


def test_read_centroid_csv(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text("location,cx,cy\nB,1.0,0.0\nA,0.0,0.0\nC,0.0,1.0\n")
    labels, pts = read_centroid_csv(path, ("A", "B", "C"))
    assert labels == ["A", "B", "C"]
    assert np.allclose(pts, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_read_centroid_csv_missing_location(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text("location,cx,cy\nA,0.0,0.0\nB,1.0,0.0\n")
    with pytest.raises(ValidationError):
        read_centroid_csv(path, ("A", "B", "C"))


def test_read_centroid_csv_bad_number_reports_row(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text("location,cx,cy\nA,0.0,0.0\nB,oops,0.0\n")
    with pytest.raises(ParseError) as err:
        read_centroid_csv(path)
    assert err.value.row == 3


def test_read_centroid_csv_field_count_reports_row(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text("location,cx,cy\nA,0.0,0.0\nB,1.0\n")
    with pytest.raises(ParseError, match="expected 3 fields, got 2") as err:
        read_centroid_csv(path)
    assert err.value.row == 3


def test_read_centroid_csv_refuses_repeated_labels(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text("location,cx,cy\nA,0.0,0.0\nB,1.0,0.0\n A ,0.0,1.0\n")
    with pytest.raises(ValidationError, match="duplicate location labels"):
        read_centroid_csv(path)


@pytest.mark.parametrize(
    "text",
    ["location,cx,cy,name\nA,0.0,0.0\n", "location,cx,cy,name\nA,0.0,0.0,a\n"],
    ids=["extra-header-name", "four-columns"],
)
def test_read_centroid_csv_refuses_a_header_with_extra_names(tmp_path, text):
    path = tmp_path / "centroids.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected header 'location,cx,cy'") as err:
        read_centroid_csv(path)
    assert err.value.row == 1


@pytest.mark.parametrize(
    "text",
    ["from,to,weight,kind\nA,B,1.0\n", "from,to,weight,kind\nA,B,1.0,x\n"],
    ids=["extra-header-name", "four-columns"],
)
def test_read_neighbor_csv_refuses_a_header_with_extra_names(tmp_path, text):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected header 'from,to,weight'") as err:
        read_neighbor_csv(path, ("A", "B"))
    assert err.value.row == 1


def test_read_neighbor_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\nB,A,0.5\nB,C,0.5\nC,B,1.0\n")
    w = read_neighbor_csv(path, ("A", "B", "C"))
    assert w.matrix[0, 1] == 1.0
    assert w.matrix[1, 0] == 0.5
    assert w.matrix[1, 2] == 0.5
    assert w.matrix[2, 1] == 1.0


def test_readers_skip_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one
    labels = ("Zürich", "Bern", "Genève")
    texts = {
        "centroids": "location,cx,cy\nBern,1.0,0.0\nZürich,0.0,0.0\nGenève,0.0,1.0\n",
        "edges": "from,to,weight\nZürich,Bern,1.0\nBern,Genève,0.5\nGenève,Zürich,0.25\n",
    }
    read = {}
    for encoding in ("utf-8", "utf-8-sig"):
        for name, text in texts.items():
            (tmp_path / f"{name}-{encoding}.csv").write_bytes(text.encode(encoding))
        read[encoding] = (
            read_centroid_csv(tmp_path / f"centroids-{encoding}.csv"),
            read_centroid_csv(tmp_path / f"centroids-{encoding}.csv", labels),
            read_neighbor_csv(tmp_path / f"edges-{encoding}.csv", labels).matrix,
        )
    (plain_labels, plain_pts), (_, plain_ordered), plain_w = read["utf-8"]
    (marked_labels, marked_pts), (_, marked_ordered), marked_w = read["utf-8-sig"]
    assert plain_labels == marked_labels == ["Bern", "Zürich", "Genève"]
    assert np.array_equal(plain_pts, marked_pts)
    assert np.array_equal(plain_ordered, marked_ordered)
    assert np.array_equal(plain_w, marked_w)
    assert plain_w[0, 1] == 1.0 and plain_w[1, 2] == 0.5 and plain_w[2, 0] == 0.25


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_centroid_csv, "location,cx,cy\nOrléans,0.0,0.0\n"),
        (read_neighbor_csv, "from,to,weight\nOrléans,Bern,1.0\n"),
    ],
    ids=["centroids", "edges"],
)
def test_readers_refuse_text_that_is_not_utf8(tmp_path, reader, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        reader(path, ["Orléans", "Bern"])


def test_read_neighbor_csv_self_loop_reports_row(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\nB,B,1.0\n")
    with pytest.raises(ParseError) as err:
        read_neighbor_csv(path, ("A", "B"))
    assert err.value.row == 3


@pytest.mark.parametrize(
    "row, match",
    [
        ("A,B\n", "expected 3 fields, got 2"),
        ("Z,B,1.0\n", "unknown location 'Z'"),
        ("B,A,heavy\n", "could not convert string to float: 'heavy'"),
    ],
    ids=["field-count", "unknown-from", "non-numeric-weight"],
)
def test_read_neighbor_csv_refusals_report_their_row(tmp_path, row, match):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\n" + row)
    with pytest.raises(ParseError, match=match) as err:
        read_neighbor_csv(path, ("A", "B"))
    assert err.value.row == 3


def test_read_neighbor_csv_unknown_label(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,Z,1.0\n")
    with pytest.raises(ParseError):
        read_neighbor_csv(path, ("A", "B"))


def test_read_neighbor_csv_duplicate_edge(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\nA,B,0.5\n")
    with pytest.raises(ParseError):
        read_neighbor_csv(path, ("A", "B"))


def test_read_neighbor_csv_refuses_more_locations_than_dense_limit(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\n")
    ids = tuple(str(i) for i in range(4097))
    with pytest.raises(ValidationError, match="dense weight matrix limit"):
        read_neighbor_csv(path, ids)


def test_every_construction_path_refuses_more_locations_than_dense_limit(tmp_path):
    # the dense case is a broadcast view, so the refusal must come before
    # anything forms n x n values from it
    n = DENSE_LIMIT + 1
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\n")
    paths = (
        lambda: SpatialWeights(np.broadcast_to(0.0, (n, n))),
        lambda: SpatialWeights._from_entries(n, np.empty(0, np.intp), np.empty(0)),
        lambda: build_knn_weights(np.arange(2.0 * n).reshape(n, 2), 10),
        lambda: read_neighbor_csv(path, [str(i) for i in range(n)]),
    )
    message = f"^{n} locations exceeds the dense weight matrix limit of {DENSE_LIMIT}$"
    for build in paths:
        with pytest.raises(ValidationError, match=message):
            build()


# ---------------------------------------------------------------------------
# k-nearest-neighbour construction against the full stable sort


def knn_by_stable_argsort(centroids, k):
    """Reference construction: the first k of a stable sort of each row."""
    pts = np.asarray(centroids, dtype=float)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    m = np.zeros((n, n))
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    m[np.arange(n)[:, None], nearest] = 1.0
    return row_normalize(SpatialWeights(m))


def lattice(side):
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)


def near_duplicates(seed):
    base = np.random.default_rng(seed).uniform(0.0, 1.0, size=(150, 2))
    return np.vstack([base, base + 1e-12, base + np.array([1e-9, 0.0])])


def kth_tie_across_cut():
    # location 0 has one neighbour at 0.5 and four at exactly 1, so with
    # k = 2 or 3 the cut falls inside the tied group
    return np.array([
        [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
        [0.0, -1.0], [5.0, 5.0], [-5.0, 5.0],
    ])


@pytest.mark.parametrize(
    "points,ks",
    [
        pytest.param(np.random.default_rng(7).uniform(size=(12, 2)), (1, 3, 10), id="random-12"),
        pytest.param(np.random.default_rng(8).uniform(size=(300, 2)), (1, 3, 10), id="random-300"),
        pytest.param(np.random.default_rng(9).normal(size=(2000, 2)), (1, 3, 10), id="random-2000"),
        pytest.param(lattice(30), (1, 2, 3, 4, 5, 8, 10, 12), id="lattice"),
        pytest.param(near_duplicates(3), (1, 2, 3, 10), id="near-duplicates"),
        pytest.param(kth_tie_across_cut(), (1, 2, 3, 4, 5, 7), id="kth-tie"),
    ],
)
def test_knn_equals_stable_argsort_reference(points, ks):
    for k in ks:
        got = build_knn_weights(points, k)
        want = knn_by_stable_argsort(points, k)
        assert np.array_equal(got.matrix, want.matrix), k
        assert np.allclose(got.matrix.sum(axis=1), 1.0, atol=1e-12), k


def test_knn_duplicate_centroids_name_the_first_pair():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0], [1.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DegenerateGeometryError, match="locations 1 and 4 have identical"):
        build_knn_weights(pts, 2)


def test_knn_peak_memory_stays_near_two_blocks():
    n = 400
    pts = np.random.default_rng(5).uniform(size=(n, 2))
    tracemalloc.start()
    try:
        build_knn_weights(pts, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # n x n float blocks; the (n, n, 2) difference tensor and full argsort
    # of the stable-sort construction peaked at 8.1, this one at 2.3
    assert peak / (n * n * 8) < 4.0


# ---------------------------------------------------------------------------
# compact storage: the stored entries rebuild the dense matrix bit for bit


def _edge_csv(path, labels, matrix):
    """``matrix``'s entries that are not +0.0, off its diagonal, as a
    from,to,weight file in reverse order."""
    lines = ["from,to,weight"]
    off_diagonal = ~np.eye(matrix.shape[0], dtype=bool)
    for i, j in zip(*np.nonzero(((matrix != 0) | np.signbit(matrix)) & off_diagonal)):
        lines.insert(1, f"{labels[i]},{labels[j]},{float(matrix[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


def _hand_built():
    """-0.0 entries (the diagonal one included) and row 0 with more than n/10
    neighbours, some weights subnormal."""
    rng = np.random.default_rng(31)
    n = 40
    m = np.where(rng.uniform(size=(n, n)) < 0.05, rng.uniform(size=(n, n)), 0.0)
    m[0, 1:20] = rng.uniform(size=19)
    np.fill_diagonal(m, 0.0)
    m[3, 7] = m[5, 5] = m[9, 0] = -0.0
    m[6, 2] = 5e-324
    return m


def _dense_cases(tmp_path):
    """(weights, the dense matrix they must equal bit for bit)."""
    pts = np.random.default_rng(30).uniform(size=(300, 2))
    raw = _hand_built()
    isolated = np.flatnonzero(raw.sum(axis=1) == 0)
    raw[isolated, (isolated + 1) % raw.shape[0]] = 0.25
    labels = [f"L{i}" for i in range(raw.shape[0])]
    _edge_csv(tmp_path / "edges.csv", labels, raw)
    from_csv = raw.copy()
    np.fill_diagonal(from_csv, 0.0)
    return {
        "knn": (build_knn_weights(pts, 7), knn_by_stable_argsort(pts, 7).matrix),
        "row-normalized": (
            row_normalize(SpatialWeights(raw)), raw / raw.sum(axis=1)[:, None]
        ),
        "neighbour-csv": (read_neighbor_csv(tmp_path / "edges.csv", labels), from_csv),
        "hand-built": (SpatialWeights(_hand_built()), _hand_built()),
        "fortran-ordered": (SpatialWeights(np.asfortranarray(raw)), raw),
        "transposed": (SpatialWeights(raw.T), raw.T.copy()),
    }


@pytest.mark.parametrize(
    "case",
    ["knn", "row-normalized", "neighbour-csv", "hand-built", "fortran-ordered", "transposed"],
)
def test_matrix_round_trips_bit_for_bit_and_stays_read_only(tmp_path, case):
    weights, dense = _dense_cases(tmp_path)[case]
    m = weights.matrix
    assert m.shape == dense.shape and m.flags.c_contiguous
    assert m.tobytes() == dense.tobytes()
    assert SpatialWeights(m).matrix.tobytes() == m.tobytes()
    assert weights._row_sums().tobytes() == dense.sum(axis=1).tobytes()
    assert weights.trace_ratio == float((dense * dense).sum()) / dense.shape[0]
    with pytest.raises(ValueError):
        m[0, 1] = 2.0
    # each access builds a new array, so a caller's copy is its own
    assert weights.matrix is not m and weights.matrix.tobytes() == dense.tobytes()
    # only the entries that are not +0.0 are kept
    assert weights._values.size == np.count_nonzero((dense != 0) | np.signbit(dense))


def test_column_sums_are_the_dense_sums_bit_for_bit(tmp_path):
    # both add each column's entries in ascending row order from +0.0; the
    # random weights mix magnitudes, so another order would round apart
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(1, 1500 if trial % 50 == 0 else 120))
        scale = 10.0 ** rng.integers(-300, 3, size=(n, n))
        m = np.where(rng.uniform(size=(n, n)) < rng.uniform(), rng.uniform(size=(n, n)) * scale, 0.0)
        m[rng.uniform(size=(n, n)) < 0.1] = -0.0
        np.fill_diagonal(m, rng.choice([0.0, -0.0]))
        assert SpatialWeights(m)._col_sums().tobytes() == m.sum(axis=0).tobytes(), trial
    for weights, dense in _dense_cases(tmp_path).values():
        assert weights._col_sums().tobytes() == dense.sum(axis=0).tobytes()


@pytest.mark.parametrize(
    "weight, match",
    [("-0.5", "negative entries"), ("nan", "non-finite entries"), ("inf", "non-finite entries")],
)
def test_read_neighbor_csv_refuses_what_the_dense_matrix_refuses(tmp_path, weight, match):
    path = tmp_path / "edges.csv"
    path.write_text(f"from,to,weight\nA,B,1.0\nB,A,{weight}\n")
    with pytest.raises(ValidationError, match=match):
        read_neighbor_csv(path, ("A", "B"))
    dense = np.array([[0.0, 1.0], [float(weight), 0.0]])
    with pytest.raises(ValidationError, match=match):
        SpatialWeights(dense)


def test_knn_weights_retain_only_their_entries():
    # 20,000 entries at n = 2000: positions and values, 320 KB, where the
    # dense matrix held 32 MB
    pts = np.random.default_rng(6).uniform(size=(2000, 2))
    tracemalloc.start()
    try:
        weights = build_knn_weights(pts, 10)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights.n_locations == 2000
    assert retained < 1_000_000


def test_read_neighbor_csv_peaks_below_one_dense_block(tmp_path):
    n = 2000
    rng = np.random.default_rng(7)
    labels = [f"L{i}" for i in range(n)]
    lines = ["from,to,weight"]
    for i in range(n):
        for j in rng.choice(np.delete(np.arange(n), i), size=10, replace=False):
            lines.append(f"{labels[i]},{labels[j]},{rng.uniform()!r}")
    path = tmp_path / "edges.csv"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        weights = read_neighbor_csv(path, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert weights._values.size == 10 * n
