"""Spatial weight matrices.

Weights are (n, n) float matrices with a zero diagonal, kept as their
entries.  k-nearest-neighbour construction uses plain Euclidean distances
between centroids and breaks distance ties in favour of the lower location
index, which keeps the result reproducible regardless of how the distances
happen to round.
"""

from __future__ import annotations

import contextlib
import csv
import functools

import numpy as np

from .errors import (
    DegenerateGeometryError,
    IsolatedUnitError,
    ParseError,
    ValidationError,
)

# The weights are sparse, but the whitener forms dense n x n blocks, about 5.3
# of them resident with LAPACK's copies and workspace (0.7 GB at this limit,
# 168 MB at n = 2000); beyond it their eigendecompositions stop being practical
# on a workstation.  Every construction path meets it in ``_refuse_oversized``.
DENSE_LIMIT = 4096


def _refuse_oversized(n: int) -> None:
    if n > DENSE_LIMIT:
        raise ValidationError(f"{n} locations exceeds the dense weight matrix limit of {DENSE_LIMIT}")


@contextlib.contextmanager
def _csv_rows(path: str):
    """A ``csv.reader`` over the file at ``path``, read as UTF-8 with an
    optional byte-order mark; bytes that are not UTF-8 raise ``ParseError``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _read_only(value, dtype=float) -> np.ndarray:
    """A C-ordered, read-only copy of ``value`` as ``dtype``: how every frozen
    record stores its arrays, so it owns what it validated.  C order, as
    ``ndarray.copy()`` gives, keeps later BLAS products rounding alike.  An
    array that is such a copy already, owning its data, is kept rather than
    copied again: a builder freezes what it made and hands it over."""
    if (
        isinstance(value, np.ndarray)
        and value.dtype == dtype
        and value.flags.c_contiguous
        and value.flags.owndata
        and not value.flags.writeable
    ):
        return value
    out = np.array(value, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _centroid_array(centroids, n: int | None = None) -> np.ndarray:
    """``centroids`` as floats, refused unless finite and (n, 2), any n if None."""
    pts = np.asarray(centroids, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or n not in (None, pts.shape[0]):
        rows = "n" if n is None else n
        raise ValidationError(f"centroids must have shape ({rows}, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("centroids contain non-finite coordinates")
    return pts


def _frozen(value: np.ndarray) -> np.ndarray:
    """``value``, which its caller has just built, made read-only, so that
    ``_read_only`` hands it to a record without a copy."""
    value.setflags(write=False)
    return value


class SpatialWeights:
    """Spatial weight matrix, stored as its entries that are not +0.0.

    Parameters
    ----------
    matrix : array_like of shape (n, n)
        Finite, non-negative weights, zero diagonal.  Row sums are not
        checked here: ``estimate_variance_components`` refuses weights
        whose largest row sum and largest column sum both exceed one.

    The entries keep their ascending row-major positions ``i * n + j`` and
    their values, -0.0 included, so ``matrix`` rebuilds the array bit for bit.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"weight matrix must be square, got shape {m.shape}")
        self._store(m.shape[0], None, m)

    @classmethod
    def _from_entries(cls, n: int, positions: np.ndarray, values: np.ndarray):
        """Weights from ascending row-major positions and their values."""
        return cls.__new__(cls)._store(n, positions, values)

    def _store(self, n: int, positions: np.ndarray | None, values: np.ndarray):
        """Validate the ``values`` that are not +0.0 as the dense matrix's and
        keep them, at ``positions`` or, when None, at their own indices."""
        _refuse_oversized(n)
        values = values.ravel()
        kept = np.flatnonzero((values != 0) | np.signbit(values))
        values = values[kept]
        if not np.all(np.isfinite(values)):
            raise ValidationError("weight matrix contains non-finite entries")
        if np.any(values < 0):
            raise ValidationError("weight matrix contains negative entries")
        positions = kept if positions is None else positions[kept]
        if np.any(values[positions % (n + 1) == 0] != 0):
            raise ValidationError("weight matrix diagonal must be zero (no self-neighbours)")
        self._n, self._positions, self._values = n, _frozen(positions), _frozen(values)
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n, n) weights, read-only, built anew on each access."""
        return _frozen(self._dense(self._values))

    def _dense(self, values: np.ndarray) -> np.ndarray:
        """An (n, n) array of zeros with ``values`` at the stored positions."""
        out = np.zeros((self._n, self._n))
        np.put(out, self._positions, values)
        return out

    def _row_sums(self) -> np.ndarray:
        """``matrix.sum(axis=1)`` bit for bit, from dense blocks of about 2**17
        values: numpy reduces each contiguous row alone, at any block height."""
        n, sums, step = self._n, np.empty(self._n), max(1, 2**17 // max(self._n, 1))
        for start in range(0, n, step):
            lo, hi = np.searchsorted(self._positions, (start * n, (start + step) * n))
            block = np.zeros((min(step, n - start), n))
            np.put(block, self._positions[lo:hi] - start * n, self._values[lo:hi])
            sums[start : start + step] = block.sum(axis=1)
        return sums

    def _col_sums(self) -> np.ndarray:
        """``matrix.sum(axis=0)`` bit for bit: both add each column's entries
        in ascending row order from +0.0, and a +0.0 entry changes no sum."""
        return np.bincount(self._positions % self._n, self._values, minlength=self._n)

    @functools.cached_property
    def _largest_sums(self) -> tuple[int, np.float64, int, np.float64]:
        """(row, sum, column, sum): W's largest row and column sums, first indices."""
        rows, cols = self._row_sums(), self._col_sums()
        row, col = int(np.argmax(rows)), int(np.argmax(cols))
        return row, rows[row], col, cols[col]

    def _eye_minus(self, rho: float) -> np.ndarray:
        """``np.eye(n) - rho * matrix`` bit for bit: 0 - rho*0 is +0.0 at either sign of rho."""
        out = self._dense(np.subtract(0.0, np.multiply(rho, self._values)))
        np.fill_diagonal(out, 1.0)
        return out

    def _lag(self, cube: np.ndarray) -> np.ndarray:
        """``np.einsum("ij,tjk->tik", matrix, cube)`` of a (t, n, p) cube, bit for
        bit.  With p > 1 and at most n/10 neighbours a location, entry (i, j) is
        summed from zero as ``w_i1 v_1j + w_i2 v_2j + ...`` over the neighbours in
        ascending order, as the einsum sums it (a zero weight leaves a finite sum
        unchanged): 0.018 s against the einsum's 0.29 s at n = 2000, 10 neighbours
        and 40 columns, 0.6-0.93 of its time at n/10 neighbours, 1.4-2.3 times it
        at n/4.  One column, which the einsum sums otherwise, keeps the einsum."""
        table = self._neighbour_table() if cube.shape[2] > 1 else None
        if table is None:
            return np.einsum("ij,tjk->tik", self.matrix, cube)
        out, term = np.zeros(cube.shape), np.empty(cube.shape)
        for columns, coefs in zip(*table):
            np.multiply(coefs[:, None], cube[:, columns], out=term)
            out += term
        return out

    def _neighbour_table(self):
        """Each row's nonzero columns in ascending order, and their weights.

        Returns two ``(width, n)`` arrays, slot by slot: slot s holds row i's
        s-th nonzero column and weight, or column 0 with weight 0 where row i
        has fewer; None when some row has more than n/10 nonzero columns.
        """
        n = self._n
        nonzero = self._values != 0
        flat, values = self._positions[nonzero], self._values[nonzero]
        rows, cols = np.divmod(flat, n)
        degree = np.bincount(rows, minlength=n)
        width = int(degree.max()) if flat.size else 0
        if 10 * width > n:
            return None
        slot = np.arange(flat.size) - np.repeat(np.cumsum(degree) - degree, degree)
        columns, coefs = np.zeros((width, n), dtype=np.intp), np.zeros((width, n))
        columns[slot, rows] = cols
        coefs[slot, rows] = values
        return columns, coefs

    @property
    def n_locations(self) -> int:
        return self._n

    @functools.cached_property
    def trace_ratio(self) -> float:
        """tr(W'W) / n, computed once: it needs an n x n temporary."""
        squares = self._dense(self._values)
        return float(np.multiply(squares, squares, out=squares).sum()) / self._n


def row_normalize(weights: SpatialWeights) -> SpatialWeights:
    """Scale each row of the weight matrix to sum to one.

    Works on the stored entries, with the dense matrix's row sums, bit for
    bit, and forms no n x n array.

    Raises
    ------
    IsolatedUnitError
        If some location has no neighbours at all (zero row).
    """
    sums = weights._row_sums()
    zero_rows = np.nonzero(sums == 0)[0]
    if zero_rows.size:
        raise IsolatedUnitError(int(zero_rows[0]))
    n, positions = weights.n_locations, weights._positions
    return SpatialWeights._from_entries(n, positions, weights._values / sums[positions // n])


def build_knn_weights(centroids: np.ndarray, k: int) -> SpatialWeights:
    """Row-normalized k-nearest-neighbour weights from 2-d centroids.

    Each location is linked to its k nearest neighbours by Euclidean
    distance (equal weight 1/k each).  Distance ties are broken by the lower
    location index so the construction is deterministic: the neighbours are
    the first k of a stable sort of each row's distances.  They are found
    by partial selection of the k-th smallest distance instead of a full
    sort.  At most two n x n float arrays, the distances and their
    partition, are alive at once; the weights keep only their n k entries.

    Parameters
    ----------
    centroids : ndarray of shape (n, 2)
    k : int
        Number of neighbours, 1 <= k < n.
    """
    pts = _centroid_array(centroids)
    n = pts.shape[0]
    _refuse_oversized(n)
    if not (1 <= k < n):
        raise ValidationError(f"k must satisfy 1 <= k < n_locations, got k={k}, n={n}")

    dist = pts[:, None, 0] - pts[None, :, 0]
    dist *= dist
    dy = pts[:, None, 1] - pts[None, :, 1]
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    dup_rows = np.flatnonzero(dist.min(axis=1) == 0)
    if dup_rows.size:
        i = dup_rows[0]
        j = np.flatnonzero(dist[i] == 0)[0]
        raise DegenerateGeometryError(
            f"locations {i} and {j} have identical centroids; "
            "k-nearest-neighbour weights are undefined"
        )

    # the k-th smallest distance of each row; everything closer is taken,
    # and the remaining places go to the lowest indices at exactly that
    # distance, as a stable sort would order them
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k].copy()
    nearest = dist < kth
    at_kth = dist == kth
    del dist
    free = k - np.count_nonzero(nearest, axis=1)
    nearest |= at_kth & (np.cumsum(at_kth, axis=1) <= free[:, None])
    positions = np.flatnonzero(nearest)
    return SpatialWeights._from_entries(n, positions, np.full(positions.size, 1.0 / k))


def read_centroid_csv(path: str, location_ids: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Read a centroid file with header ``location,cx,cy``.

    Returns the location labels in file order and the (n, 2) coordinate
    array.  When ``location_ids`` is given the rows are reordered to match it
    and every id must be present exactly once.
    """
    labels: list[str] = []
    coords: list[tuple[float, float]] = []
    with _csv_rows(path) as reader:
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["location", "cx", "cy"]:
            raise ParseError("expected header 'location,cx,cy'", row=1)
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != 3:
                raise ParseError(f"expected 3 fields, got {len(rec)}", row=rownum)
            try:
                coords.append((float(rec[1]), float(rec[2])))
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            labels.append(rec[0].strip())
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate location labels in centroid file")
    pts = np.asarray(coords, dtype=float)
    if location_ids is not None:
        index = {lab: i for i, lab in enumerate(labels)}
        missing = [lab for lab in location_ids if lab not in index]
        if missing:
            raise ValidationError(f"centroid file is missing locations {missing[:5]}")
        pts = pts[[index[lab] for lab in location_ids]]
        labels = list(location_ids)
    return labels, pts


def read_neighbor_csv(path: str, location_ids: list[str]) -> SpatialWeights:
    """Read a neighbour-list weight file with header ``from,to,weight``.

    Location labels must match ``location_ids``; the returned matrix follows
    that ordering.  Self-loops and repeated (from, to) pairs are rejected.
    Memory grows with the number of edges, not with n x n.
    """
    index = {lab: i for i, lab in enumerate(location_ids)}
    n = len(location_ids)
    edges: dict[int, float] = {}
    with _csv_rows(path) as reader:
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["from", "to", "weight"]:
            raise ParseError("expected header 'from,to,weight'", row=1)
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != 3:
                raise ParseError(f"expected 3 fields, got {len(rec)}", row=rownum)
            src, dst = rec[0].strip(), rec[1].strip()
            for label in (src, dst):
                if label not in index:
                    raise ParseError(f"unknown location {label!r}", row=rownum)
            try:
                wgt = float(rec[2])
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            i, j = index[src], index[dst]
            if i == j:
                raise ParseError(f"self-loop on location {src!r}", row=rownum)
            if i * n + j in edges:
                raise ParseError(f"duplicate edge {src!r} -> {dst!r}", row=rownum)
            edges[i * n + j] = wgt
    positions = sorted(edges)
    return SpatialWeights._from_entries(
        n, np.array(positions, dtype=np.intp), np.array([edges[p] for p in positions])
    )
