"""Spatial weight matrices.

Weights are dense (n, n) float arrays with a zero diagonal.  k-nearest-
neighbour construction uses plain Euclidean distances between centroids and
breaks distance ties in favour of the lower location index, which keeps the
result reproducible regardless of how the distances happen to round.
"""

from __future__ import annotations

import csv
import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    IsolatedUnitError,
    ParseError,
    ValidationError,
)

# Dense (n, n) storage is used throughout; beyond this the eigendecompositions
# needed downstream stop being practical on a workstation.  Building the
# random-effects whitener peaks at about 5.3 n x n float blocks of resident
# memory, LAPACK's copies and workspace included (about 0.72 GB at this
# limit, 171 MB at n = 2000), on top of the weights themselves.
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class SpatialWeights:
    """Spatial weight matrix with a normalization flag.

    Parameters
    ----------
    matrix : ndarray of shape (n, n)
        Non-negative weights, zero diagonal.
    row_normalized : bool
        True when every row with at least one neighbour sums to one.
    """

    matrix: np.ndarray
    row_normalized: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"weight matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("weight matrix contains non-finite entries")
        if np.any(m < 0):
            raise ValidationError("weight matrix contains negative entries")
        if np.any(np.diag(m) != 0):
            raise ValidationError("weight matrix diagonal must be zero (no self-neighbours)")
        if self.row_normalized:
            sums = m.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > 1e-12)[0]
            if bad.size:
                raise ValidationError(
                    f"row_normalized is set but row {bad[0]} sums to {sums[bad[0]]!r}"
                )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_locations(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def trace_ratio(self) -> float:
        """tr(W'W) / n, computed once: it needs an n x n temporary."""
        return float((self.matrix * self.matrix).sum()) / self.n_locations

    def fingerprint(self) -> str:
        """Short content hash of the matrix, for telling weight matrices apart."""
        h = hashlib.sha256(np.ascontiguousarray(self.matrix).tobytes())
        return h.hexdigest()[:12]


def row_normalize(weights: SpatialWeights) -> SpatialWeights:
    """Scale each row of the weight matrix to sum to one.

    Raises
    ------
    IsolatedUnitError
        If some location has no neighbours at all (zero row).
    """
    m = weights.matrix
    sums = m.sum(axis=1)
    zero_rows = np.nonzero(sums == 0)[0]
    if zero_rows.size:
        raise IsolatedUnitError(int(zero_rows[0]))
    return SpatialWeights(m / sums[:, None], row_normalized=True)


def build_knn_weights(centroids: np.ndarray, k: int) -> SpatialWeights:
    """Row-normalized k-nearest-neighbour weights from 2-d centroids.

    Each location is linked to its k nearest neighbours by Euclidean
    distance (equal weight 1/k each).  Distance ties are broken by the lower
    location index so the construction is deterministic: the neighbours are
    the first k of a stable sort of each row's distances.  They are found
    by partial selection of the k-th smallest distance instead of a full
    sort, and at most about three n x n float arrays are alive at once.

    Parameters
    ----------
    centroids : ndarray of shape (n, 2)
    k : int
        Number of neighbours, 1 <= k < n.
    """
    pts = np.asarray(centroids, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"centroids must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("centroids contain non-finite coordinates")
    n = pts.shape[0]
    if n > DENSE_LIMIT:
        raise ValidationError(
            f"{n} locations exceeds the dense weight matrix limit of {DENSE_LIMIT}"
        )
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
    return SpatialWeights(np.where(nearest, 1.0 / k, 0.0), row_normalized=True)


def read_centroid_csv(path: str, location_ids: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Read a centroid file with header ``location,cx,cy``.

    Returns the location labels in file order and the (n, 2) coordinate
    array.  When ``location_ids`` is given the rows are reordered to match it
    and every id must be present exactly once.
    """
    labels: list[str] = []
    coords: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["location", "cx", "cy"]:
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
    """
    index = {lab: i for i, lab in enumerate(location_ids)}
    n = len(location_ids)
    if n > DENSE_LIMIT:
        raise ValidationError(
            f"{n} locations exceeds the dense weight matrix limit of {DENSE_LIMIT}"
        )
    m = np.zeros((n, n))
    seen: set[tuple[int, int]] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["from", "to", "weight"]:
            raise ParseError("expected header 'from,to,weight'", row=1)
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != 3:
                raise ParseError(f"expected 3 fields, got {len(rec)}", row=rownum)
            src, dst = rec[0].strip(), rec[1].strip()
            if src not in index:
                raise ParseError(f"unknown location {src!r}", row=rownum)
            if dst not in index:
                raise ParseError(f"unknown location {dst!r}", row=rownum)
            try:
                wgt = float(rec[2])
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            i, j = index[src], index[dst]
            if i == j:
                raise ParseError(f"self-loop on location {src!r}", row=rownum)
            if (i, j) in seen:
                raise ParseError(f"duplicate edge {src!r} -> {dst!r}", row=rownum)
            seen.add((i, j))
            m[i, j] = wgt
    return SpatialWeights(m)
