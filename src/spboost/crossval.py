"""Cross-validation folds and risk curves for early stopping.

Spatial folds cluster the location centroids with k-means and assign every
period of a location to its cluster's fold, so no location leaks between
training and test rows.  Leave-time-out folds hold out one whole period at
a time.  The risk curve evaluates held-out risk after every boosting
iteration and averages it across folds; its minimizer is the stopping
iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.cluster.vq import ClusterError, kmeans2

from .boosting import BoostConfig, _cv_risk_path
from .errors import DegenerateGeometryError, ValidationError

KMEANS_RESTARTS = 50
KMEANS_MAX_ITER = 100


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


def _kmeans_restart(pts: np.ndarray, n_folds: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """One ``kmeans2(..., iter=100, minit="++")`` restart, stopped at its fixed point."""
    centers, labels = kmeans2(pts, n_folds, iter=1, minit="++", missing="raise", rng=rng)
    for _ in range(KMEANS_MAX_ITER - 1):
        centers, new_labels = kmeans2(pts, centers, iter=1, minit="matrix", missing="raise")
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def make_spatial_folds(
    centroids: np.ndarray, n_folds: int, n_periods: int, seed: int
) -> FoldPlan:
    """Cluster centroids into folds with restarted seeded k-means.

    Runs up to 50 k-means++ restarts and keeps the labeling with the lowest
    within-cluster sum of squares.  Restarts that lose a cluster are
    retried with a fresh stream; 50 such failures abort.  Each restart runs
    Lloyd iterations until the labels stop changing, at most 100.  This
    equals 100 iterations bit for bit, lost clusters included: the centres
    are recomputed from the labels alone, so once the labels repeat, so do
    the centres and every later iteration.
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
    while successes < KMEANS_RESTARTS:
        attempt = successes + failures
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        )
        try:
            centers, labels = _kmeans_restart(pts, n_folds, rng)
        except ClusterError:
            failures += 1
            if failures >= KMEANS_RESTARTS:
                raise DegenerateGeometryError(
                    f"k-means lost a cluster in {failures} consecutive attempts; "
                    f"cannot split {n} locations into {n_folds} folds"
                ) from None
            continue
        wcss = float(((pts - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
        successes += 1

    assignment = np.tile(np.asarray(best_labels, dtype=np.int64), n_periods)
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
    threads: int = 1,
) -> np.ndarray:
    """Fold-averaged held-out risk after each boosting iteration.

    Entry m of the returned curve is the average over folds of the held-out
    mean squared error of the model after m iterations trained on the
    remaining folds; entry 0 belongs to the zero model.  Training columns
    that are identically zero within a fold are excluded for that fold only.
    ``threads`` is ignored: folds run serially, since the fits hold the GIL
    and a thread pool was slower.

    Each fold updates the training correlations through cached Gram
    columns, ``Z'r <- Z'r - step * Z'z_j``, and never forms the training
    residual (see ``boosting``).  The curve therefore equals a fold-by-fold
    replay of ``boost`` on the training rows up to rounding only; the
    coefficients of a fit come from the direct path.
    """
    y = np.asarray(response, dtype=float)
    z = np.asarray(design, dtype=float)
    if y.shape[0] != plan.assignment.shape[0] or z.shape[0] != y.shape[0]:
        raise ValidationError("data and fold plan have different numbers of rows")

    def one_fold(f: int) -> np.ndarray:
        train = plan.assignment != f
        test = ~train
        return _cv_risk_path(
            y[train],
            z[train],
            y[test],
            z[test],
            config.learning_rate,
            config.m_stop,
            warn_label=f"fold {f} training data",
        )

    return np.mean([one_fold(f) for f in range(plan.n_folds)], axis=0)


def choose_stopping_iteration(curve: np.ndarray) -> int:
    """Index of the curve minimum; ties go to the smaller iteration count."""
    if len(curve) == 0:
        raise ValidationError("empty risk curve")
    return int(np.argmin(curve))
