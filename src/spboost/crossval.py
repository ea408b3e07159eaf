"""Cross-validation folds and risk curves for early stopping.

Spatial folds cluster the location centroids with k-means and assign every
period of a location to its cluster's fold, so no location leaks between
training and test rows.  The k-means is this module's own: k-means++
seeding (Arthur & Vassilvitskii 2007) and Lloyd steps, run for a batch of
seeded restarts at once as arrays, and equal bit for bit to scipy's
``kmeans2(iter=100, minit="++")`` restart by restart.  Leave-time-out folds
hold out one whole period at a time.  The risk curve evaluates held-out
risk after every boosting iteration and averages it across folds, one fold
after another (the fold-wise ``cvrisk`` of Hofner et al. 2014); its
minimizer is the stopping iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boosting import BoostConfig, _gram_path
from .errors import DegenerateGeometryError, ValidationError

KMEANS_RESTARTS = 50
KMEANS_MAX_ITER = 100
# restarts per batch are capped so that each (restarts, locations) work array
# holds at most this many values (128 KiB); larger arrays ran slower
KMEANS_BATCH_ENTRIES = 16_384


class FoldKind(enum.Enum):
    SPATIAL = "spatial"
    TIME = "time"


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every stacked observation to one cross-validation fold."""

    kind: FoldKind
    n_folds: int
    assignment: np.ndarray
    n_locations: int
    n_periods: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        n, t = self.n_locations, self.n_periods
        if a.shape != (n * t,):
            raise ValidationError(f"assignment has shape {a.shape}, expected ({n * t},)")
        counts = np.bincount(a, minlength=self.n_folds)
        if a.min() < 0 or a.max() >= self.n_folds or np.any(counts == 0):
            raise ValidationError("every fold index in [0, n_folds) must be non-empty")
        cube = a.reshape(t, n)
        if self.kind is FoldKind.SPATIAL:
            if not np.all(cube == cube[0]):
                raise ValidationError(
                    "spatial folds must give all periods of a location the same fold"
                )
        else:
            if not np.all(cube == cube[:, :1]):
                raise ValidationError(
                    "leave-time-out folds must give all locations of a period the same fold"
                )
            if self.n_folds != t:
                raise ValidationError("leave-time-out uses one fold per period")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


def _squared_distances(centre: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(c - p)_x**2 + (c - p)_y**2`` from one centre per restart to every point."""
    dx = centre[:, 0, None] - xs
    dy = centre[:, 1, None] - ys
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _kmeans_restarts(pts: np.ndarray, n_folds: int, rngs) -> list:
    """k-means++ restarts run side by side, one per generator in ``rngs``.

    Each restart equals ``kmeans2(pts, n_folds, iter=100, minit="++",
    missing="raise", rng=rng)`` of ``scipy.cluster.vq`` bit for bit, and
    returns its ``(centers, labels)``, or None where that call would raise
    ``ClusterError`` because a cluster lost its last point.

    * Seeding draws as ``_kpp`` does: ``rng.integers(n)`` for the first
      centre, then one ``rng.uniform()`` per further centre, placed by a
      left search of the cumulative ``D2 / D2.sum()``.  When every point
      already sits on a centre that ratio is 0/0 and the search lands on
      point 0, again as in ``_kpp``.
    * A Lloyd step assigns each point to its nearest centre by
      ``(c - p)_x**2 + (c - p)_y**2``, ties to the lower index (the strict
      ``<`` of ``vq``), and moves each centre to its points' sum in row order
      divided by their count.
    * A restart stops when its labels repeat, at most 100 steps: the centres
      depend on the labels alone, so every later step would repeat too.
    """
    n = pts.shape[0]
    r = len(rngs)
    xs, ys = np.ascontiguousarray(pts.T)
    centers = np.empty((r, n_folds, 2))
    centers[:, 0] = pts[[rng.integers(n) for rng in rngs]]
    d2 = None
    for i in range(1, n_folds):
        d = _squared_distances(centers[:, i - 1], xs, ys)
        d2 = d if d2 is None else np.minimum(d2, d, out=d2)
        with np.errstate(invalid="ignore"):
            cumprobs = np.cumsum(d2 / d2.sum(axis=1, keepdims=True), axis=1)
        draws = np.array([rng.uniform() for rng in rngs])
        centers[:, i] = pts[(cumprobs < draws[:, None]).sum(axis=1)]

    coords = (np.tile(xs, r), np.tile(ys, r))
    labels = np.empty((r, n), dtype=np.int64)
    lost = np.zeros(r, dtype=bool)
    moving = np.arange(r)
    for step in range(KMEANS_MAX_ITER):
        c = centers[moving]
        best = _squared_distances(c[:, 0], xs, ys)
        new = np.zeros(best.shape, dtype=np.int64)
        for j in range(1, n_folds):
            d = _squared_distances(c[:, j], xs, ys)
            np.copyto(new, j, where=d < best)
            np.minimum(best, d, out=best)
        if step:
            changed = (new != labels[moving]).any(axis=1)
            moving, new = moving[changed], new[changed]
            if not moving.size:
                break
        labels[moving] = new
        m = moving.size
        bins = (new + n_folds * np.arange(m)[:, None]).ravel()
        counts = np.bincount(bins, minlength=m * n_folds).reshape(m, n_folds)
        full = ~(counts == 0).any(axis=1)
        lost[moving[~full]] = True
        for axis, weights in enumerate(coords):
            sums = np.bincount(bins, weights[: m * n], minlength=m * n_folds)
            centers[moving[full], :, axis] = sums.reshape(m, n_folds)[full] / counts[full]
        moving = moving[full]
    return [None if lost[q] else (centers[q], labels[q]) for q in range(r)]


def make_spatial_folds(
    centroids: np.ndarray, n_folds: int, n_periods: int, seed: int
) -> FoldPlan:
    """Cluster centroids into folds with restarted seeded k-means.

    Runs up to 50 k-means++ restarts and keeps the labeling with the lowest
    within-cluster sum of squares (the first on ties).  Restart ``a`` draws
    from its own Philox stream, spawn key ``(a,)`` of ``seed``.  Restarts
    that lose a cluster are replaced by further ones; 50 such failures
    abort with ``DegenerateGeometryError``.  The restarts run in batches
    through ``_kmeans_restarts`` (each bitwise scipy's ``kmeans2`` with
    ``iter=100``), sized so that a batch's work arrays hold at most
    ``KMEANS_BATCH_ENTRIES`` values each, and are scanned in restart order.
    """
    pts = np.asarray(centroids, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"centroids must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("centroids contain non-finite coordinates")
    n = pts.shape[0]
    if not (2 <= n_folds <= n):
        raise ValidationError(
            f"n_folds must be between 2 and the number of locations, got {n_folds}"
        )
    if n_periods < 1:
        raise ValidationError("n_periods must be positive")

    best_labels = None
    best_wcss = np.inf
    successes = 0
    failures = 0
    batch = max(1, KMEANS_BATCH_ENTRIES // n)
    while successes < KMEANS_RESTARTS:
        first = successes + failures
        rngs = [
            np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(a,)))
            )
            for a in range(first, first + min(batch, KMEANS_RESTARTS - successes))
        ]
        for outcome in _kmeans_restarts(pts, n_folds, rngs):
            if outcome is None:
                failures += 1
                if failures >= KMEANS_RESTARTS:
                    raise DegenerateGeometryError(
                        f"k-means lost a cluster in {failures} of "
                        f"{successes + failures} restarts; "
                        f"cannot split {n} locations into {n_folds} folds"
                    )
                continue
            centers, labels = outcome
            wcss = float(((pts - centers[labels]) ** 2).sum())
            if wcss < best_wcss:
                best_wcss = wcss
                best_labels = labels
            successes += 1

    assignment = np.tile(best_labels, n_periods)
    return FoldPlan(
        kind=FoldKind.SPATIAL,
        n_folds=n_folds,
        assignment=assignment,
        n_locations=n,
        n_periods=n_periods,
    )


def make_time_folds(n_locations: int, n_periods: int) -> FoldPlan:
    """One fold per period (leave-time-out)."""
    if n_periods < 2:
        raise ValidationError("leave-time-out needs at least two periods")
    assignment = np.repeat(np.arange(n_periods, dtype=np.int64), n_locations)
    return FoldPlan(
        kind=FoldKind.TIME,
        n_folds=n_periods,
        assignment=assignment,
        n_locations=n_locations,
        n_periods=n_periods,
    )


def boost_cv_curve(
    response: np.ndarray,
    design: np.ndarray,
    plan: FoldPlan,
    config: BoostConfig,
) -> np.ndarray:
    """Fold-averaged held-out risk after each boosting iteration.

    Entry m of the returned curve is the average over folds of the held-out
    mean squared error of the model after m iterations trained on the
    remaining folds; entry 0 belongs to the zero model.  Training columns
    that are identically zero within a fold are excluded for that fold only.

    Each fold runs the one boosting kernel (``boosting._gram_path``) on its
    training rows, with its held-out rows as the held-out pair, so the
    curve is the held-out risk of the very selection path and steps that
    ``boost`` would take on those training rows.  Each fold's held-out
    design is passed transposed and C-contiguous, so that a step reads one
    contiguous row.  Folds run one after another, not in lockstep: a
    bit-identical lockstep must hold every fold's training design and Gram
    cache at once, which raised peak memory and was no faster.
    """
    y = np.asarray(response, dtype=float)
    z = np.asarray(design, dtype=float)
    if y.shape[0] != plan.assignment.shape[0] or z.shape[0] != y.shape[0]:
        raise ValidationError("data and fold plan have different numbers of rows")

    def one_fold(f: int) -> np.ndarray:
        train = plan.assignment != f
        test = ~train
        return _gram_path(
            y[train],
            z[train],
            y[test],
            np.ascontiguousarray(z[test].T),
            config.learning_rate,
            config.m_stop,
            warn_label=f"fold {f} training data",
        )[2]

    return np.mean([one_fold(f) for f in range(plan.n_folds)], axis=0)


def choose_stopping_iteration(curve: np.ndarray) -> int:
    """Index of the curve minimum; ties go to the smaller iteration count."""
    if len(curve) == 0:
        raise ValidationError("empty risk curve")
    return int(np.argmin(curve))
