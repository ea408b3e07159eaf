import tracemalloc

import numpy as np
import pytest

from spboost.errors import (
    DegenerateGeometryError,
    IsolatedUnitError,
    ParseError,
    ValidationError,
)
from spboost.weights import (
    SpatialWeights,
    build_knn_weights,
    read_centroid_csv,
    read_neighbor_csv,
    row_normalize,
)


def test_rows_sum_to_one_when_normalized():
    w = SpatialWeights(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.3, 0.7, 0.0]]),
                       row_normalized=True)
    assert np.allclose(w.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.array([[0.1, 0.9], [1.0, 0.0]]), row_normalized=True)


def test_negative_entry_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.array([[0.0, -1.0], [1.0, 0.0]]), row_normalized=False)


def test_nonsquare_rejected():
    with pytest.raises(ValidationError):
        SpatialWeights(np.zeros((2, 3)), row_normalized=False)


def test_matrix_is_read_only():
    w = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 2.0


def test_row_normalize_proportional_scaling():
    raw = SpatialWeights(np.array([[0.0, 2.0, 2.0],
                                   [0.0, 0.0, 1.0],
                                   [0.0, 1.0, 0.0]]), row_normalized=False)
    out = row_normalize(raw)
    assert np.allclose(out.matrix[0], [0.0, 0.5, 0.5])
    assert out.row_normalized


def test_row_normalize_uneven_row():
    raw = SpatialWeights(np.array([[0.0, 1.0, 3.0],
                                   [1.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0]]), row_normalized=False)
    out = row_normalize(raw)
    assert np.allclose(out.matrix[0], [0.0, 0.25, 0.75])


def test_row_normalize_idempotent():
    raw = SpatialWeights(np.array([[0.0, 2.0, 2.0],
                                   [0.0, 0.0, 4.0],
                                   [5.0, 0.0, 0.0]]), row_normalized=False)
    once = row_normalize(raw)
    twice = row_normalize(once)
    assert np.allclose(once.matrix, twice.matrix, atol=1e-12)


def test_row_normalize_isolated_location():
    raw = SpatialWeights(np.array([[0.0, 0.0], [1.0, 0.0]]), row_normalized=False)
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


def test_fingerprint_stable_and_sensitive():
    w1 = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
    w2 = SpatialWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), row_normalized=True)
    w3 = SpatialWeights(np.array([[0.0, 0.5], [1.0, 0.0]]), row_normalized=False)
    assert w1.fingerprint() == w2.fingerprint()
    assert w1.fingerprint() != w3.fingerprint()


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


def test_read_neighbor_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\nB,A,0.5\nB,C,0.5\nC,B,1.0\n")
    w = read_neighbor_csv(path, ("A", "B", "C"))
    assert w.matrix[0, 1] == 1.0
    assert w.matrix[1, 0] == 0.5
    assert w.matrix[1, 2] == 0.5
    assert w.matrix[2, 1] == 1.0


def test_read_neighbor_csv_self_loop_reports_row(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\nA,B,1.0\nB,B,1.0\n")
    with pytest.raises(ParseError) as err:
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
        assert got.fingerprint() == want.fingerprint()
        assert got.row_normalized


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
