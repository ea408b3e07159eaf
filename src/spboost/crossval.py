"""Cross-validation folds and risk curves for early stopping.

Spatial folds cluster the location centroids with k-means and assign every
period of a location to its cluster's fold, so no location leaks between
training and test rows.  The k-means is this module's own: k-means++
seeding (Arthur & Vassilvitskii 2007) and Lloyd steps, run for a batch of
seeded restarts at once as arrays, and equal bit for bit to scipy's
``kmeans2(iter=100, minit="++")`` restart by restart.  Leave-time-out folds
hold out one whole period at a time.  The risk curve evaluates held-out
risk after every boosting iteration and averages it across folds (the
fold-wise ``cvrisk`` of Hofner et al. 2014); its minimizer is the stopping
iteration.  The folds of a curve take their Gram rows from one ``Z'Z``,
built in matrix-matrix blocks while it holds no more values than the
design, less each fold's held-out part (``_Fold``); past that bound each
takes them from its training rows.  Either way each fold's path is that of
``boost`` on its training rows up to rounding, and exact ties between
columns identical on them go to the lower index.  Small folds, of one fit
or of all the replications of a simulation, are boosted side by side in
lockstep batches of at most ``CV_BATCH_ENTRIES`` stacked values, so that
the folds of a simulation's replications usually share one batch; a fold
with a wide design or a long held-out set (over ``CV_FOLD_ENTRIES``
values) runs alone through the boosting kernel.  Both give each fold the
kernel's bits on the same inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boosting import BoostConfig, _gram_path, _screen_norms
from .errors import DegenerateGeometryError, ValidationError
from .weights import _centroid_array, _read_only

KMEANS_RESTARTS = 50
KMEANS_MAX_ITER = 100
# restarts per batch are capped so that each (restarts, locations) work array
# holds at most this many values (128 KiB); larger arrays ran slower
KMEANS_BATCH_ENTRIES = 16_384
# a fold joins a lockstep batch only while its own Gram and held-out caches
# and residual history (``_fold_entries``) hold at most this many values
# (512 KiB): five folds of k = 41 took 0.48-0.88 of the per-fold kernel's
# time up to 1,200 held-out rows (71,281 values), but 1.21 at 2,000 rows,
# 1.15 at k = 321 and 3.2 at k = 801; a larger fold runs through the
# per-fold kernel alone
CV_FOLD_ENTRIES = 65_536
# a batch's stacked state holds at most this many values (4 MiB), so that
# the 50 folds of ten replications at the ``simulate`` defaults share one
# batch: 0.044-0.046 s where batches of 1 MiB took 0.070-0.075 s, and 8 MiB
# gained nothing more
CV_BATCH_ENTRIES = 524_288
# held-out residuals kept between two evaluations of their risks
CV_HISTORY_STEPS = 16
# a curve's Z'Z is built this many rows at a time, as matrix-matrix
# products, and only its upper triangle is kept: the full Z'Z (5.1 MB at
# k = 801) peaked 2.7 MB higher in fit-wide loops at a fixed op count.  It
# is built only while its k (k + GRAM_BLOCK) / 2 values are no more than
# the design's n k, that is while k + GRAM_BLOCK <= 2 n (``_has_gram``)
GRAM_BLOCK = 64
# a column whose training rows hold less than this share of its squared
# norm takes its Gram entries from the training rows: the rounding error of
# the difference of the full and held-out products, against the training
# norms, grows as 1 / share
CV_DIRECT_SHARE = 1 / 16


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, key...)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


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
        a = _read_only(self.assignment, dtype=np.int64)
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
    from its own Philox stream, ``_stream(seed, a)``, so ``seed`` must be
    non-negative (``ValidationError`` otherwise).  Restarts
    that lose a cluster are replaced by further ones; 50 such failures
    abort with ``DegenerateGeometryError``.  The restarts run in batches
    through ``_kmeans_restarts`` (each bitwise scipy's ``kmeans2`` with
    ``iter=100``), sized so that a batch's work arrays hold at most
    ``KMEANS_BATCH_ENTRIES`` values each, and are scanned in restart order.
    """
    pts = _centroid_array(centroids)
    n = pts.shape[0]
    if not (2 <= n_folds <= n):
        raise ValidationError(
            f"n_folds must be between 2 and the number of locations, got {n_folds}"
        )
    if n_periods < 1:
        raise ValidationError("n_periods must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    best_labels = None
    best_wcss = np.inf
    successes = 0
    failures = 0
    batch = max(1, KMEANS_BATCH_ENTRIES // n)
    while successes < KMEANS_RESTARTS:
        first = successes + failures
        stop = first + min(batch, KMEANS_RESTARTS - successes)
        rngs = [_stream(seed, a) for a in range(first, stop)]
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


def _fold_entries(n_columns: int, n_out: int) -> int:
    """Values a fold holds in a lockstep batch: Gram and held-out caches, history."""
    return n_columns * (n_columns + n_out) + (CV_HISTORY_STEPS + 1) * n_out


def _has_gram(n_rows: int, n_columns: int) -> bool:
    """Whether a curve on an ``n_rows`` x ``n_columns`` design builds its Z'Z
    triangle: only while it holds no more values than the design itself."""
    return n_columns + GRAM_BLOCK <= 2 * n_rows


def _gram(z: np.ndarray) -> list:
    """The upper triangle of ``Z'Z`` in row blocks of ``GRAM_BLOCK`` columns.

    Block b holds the products of the design's columns s to s +
    ``GRAM_BLOCK`` (s = b ``GRAM_BLOCK``) with its columns from s on, one
    matrix-matrix product each.  ``_gram_row`` reads a full row from them.
    """
    return [z[:, s : s + GRAM_BLOCK].T @ z[:, s:] for s in range(0, z.shape[1], GRAM_BLOCK)]


def _gram_row(gram: list, j: int) -> np.ndarray:
    """Row j of ``Z'Z``: column j of the blocks above its own, then its own row."""
    b, r = divmod(j, GRAM_BLOCK)
    above = [block[:, j - a * GRAM_BLOCK] for a, block in enumerate(gram[:b])]
    return np.concatenate(above + [gram[b][r]])


def _representatives(z: np.ndarray, train: np.ndarray, corr: np.ndarray, norms2: np.ndarray):
    """Each column's lowest-indexed copy on the training rows; None if none repeats.

    Candidates are columns whose starting correlation and training norm
    are bitwise equal; each is confirmed by an exact comparison of its
    training rows with those of a lower candidate.
    """
    keys = np.stack((corr, norms2)).view(np.int64)
    order = np.lexsort(keys)
    ordered = keys[:, order]
    new = np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)]
    if new.all():
        return None
    group = np.empty_like(order)
    group[order] = np.cumsum(new)
    rep = np.arange(z.shape[1])
    for g in np.flatnonzero(np.bincount(group) > 1):
        copies = np.flatnonzero(group == g)
        for pos, j in enumerate(copies[1:], 1):
            for i in copies[:pos]:
                if rep[i] == i and np.array_equal(z[train, i], z[train, j]):
                    rep[j] = i
                    break
    return rep


class _Fold:
    """One fold's boosting inputs, derived from its problem's ``Z'Z``.

    Built from ``(response, design, gram, train, warn_label)``, with
    ``gram`` the design's ``_gram`` or None and ``train`` the fold's
    boolean training mask w:

    * ``corr``, the starting correlations ``Z'(w∘y)``;
    * ``inv_norms2`` and ``selectable``, the screen of the training norms
      ``Σ w z²``, exactly zero for a column that is zero on every training
      row, which is dropped with a warning naming ``warn_label``;
    * ``response`` and ``columns``, the held-out response and design, the
      latter transposed;
    * ``row(j)``, Gram row j of the training rows, ``Z'(w∘z_j)``.

    Gram row j is ``G[j] - Z_out'z_out,j``.  That difference cancels where
    a column's training rows hold little of its squared norm, so the
    entries of a column under ``CV_DIRECT_SHARE`` of it (a column dead in
    the training rows among them) are taken from the training rows
    directly, and so is the whole row of such a column.  Without a
    ``gram`` the fold copies its training rows and takes its correlations,
    norms and rows from the copy, with the arithmetic of ``boost`` on
    them.  Columns identical on the training rows take their entries from
    the lowest such column (``_representatives``), so that their
    correlations stay bitwise equal and an exact tie between them still
    goes to the lower index.
    """

    def __init__(self, y, z, gram, train, warn_label):
        self.response = y[~train]
        self.columns = np.ascontiguousarray(z[~train].T)
        if gram is None:
            self.z_train = z[train]
            self.corr = self.z_train.T @ y[train]
            norms2 = np.einsum("ij,ij->j", self.z_train, self.z_train)
        else:
            self.corr = z.T @ np.where(train, y, 0.0)
            norms2 = np.einsum("ij,i,ij->j", z, train.astype(float), z)
            diagonal = np.concatenate([np.diagonal(block) for block in gram])
            self.is_direct = norms2 < CV_DIRECT_SHARE * diagonal
            self.direct = np.flatnonzero(self.is_direct)
            self.z_direct = z[:, self.direct]
        self.inv_norms2, self.selectable, _ = _screen_norms(norms2, None, warn_label)
        self.z, self.train, self.gram = z, train, gram
        self.rep = _representatives(z, train, self.corr, norms2)

    def row(self, j: int) -> np.ndarray:
        """Gram row j of the training rows."""
        if self.gram is None:
            row = self.z_train.T @ self.z_train[:, j]
        elif self.is_direct[j]:
            row = self.z.T @ np.where(self.train, self.z[:, j], 0.0)
        else:
            row = _gram_row(self.gram, j)
            row -= self.columns @ self.columns[j]
            if self.direct.size:
                row[self.direct] = np.where(self.train, self.z[:, j], 0.0) @ self.z_direct
        return row if self.rep is None else row[self.rep]


def _lockstep_risks(folds: list, learning_rate: float, n_iterations: int) -> np.ndarray:
    """Held-out risk paths of several folds boosted side by side.

    ``folds`` holds the ``(response, design, gram, train, warn_label)``
    arguments of each fold's ``_Fold``; row b of the returned ``(folds,
    n_iterations + 1)`` array equals ``_gram_path``'s ``heldout_risk`` on
    fold b's inputs bit for bit, because every operation is the kernel's
    own:

    * the screen, the starting correlations and every Gram row come from
      the fold's ``_Fold``, all rows up front, so that no fold's inputs
      outlive the set-up;
    * the scores, steps and updates are elementwise on arrays stacked along
      a leading fold axis (columns padded with a -inf penalty, held-out rows
      with zeros), with one ``argmax`` per row;
    * the held-out residuals of the last ``CV_HISTORY_STEPS`` iterations
      are kept, and their risks are taken every so many steps by one
      ``np.matmul(seg[..., None, :], seg[..., :, None])`` per held-out
      length, over the folds of that length, gathered by an index array;
      each item of it reduces a fold's own contiguous residual through the
      same dot as ``d @ d``.
    """
    n_folds = len(folds)
    width = max(z.shape[1] for _, z, *_ in folds)
    n_outs = np.array([int((~train).sum()) for *_, train, _ in folds])
    corr = np.zeros((n_folds, width))
    inv_norms2 = np.zeros((n_folds, width))
    penalty = np.full((n_folds, width), -np.inf)
    # row ``b * width + j``: fold b's Gram row j, then its held-out values,
    # so that one gather fetches both
    cache = np.zeros((n_folds * width, width + n_outs.max()))
    history = np.zeros((CV_HISTORY_STEPS + 1, n_folds, n_outs.max()))
    for b, args in enumerate(folds):
        fold = _Fold(*args)
        k = fold.corr.shape[0]
        inv_norms2[b, :k] = fold.inv_norms2
        penalty[b, :k][fold.selectable] = 0.0
        corr[b, :k] = fold.corr
        for j in range(k):
            cache[b * width + j, :k] = fold.row(j)
        cache[b * width : b * width + k, width : width + n_outs[b]] = fold.columns
        history[0, b, : n_outs[b]] = fold.response

    offsets = np.arange(n_folds) * width
    scores = np.empty((n_folds, width))
    risk = np.empty((n_folds, n_iterations + 1))
    # the folds of each held-out length, whose risks one matmul takes
    groups = [(n, np.flatnonzero(n_outs == n)) for n in np.unique(n_outs).tolist()]
    # history[s] holds the residuals after ``done + s`` iterations; the risks
    # of rows ``first`` to ``s`` are still to be taken
    done = first = s = 0

    def flush():
        for n, group in groups:
            seg = history[first : s + 1, group, :n]
            dots = np.matmul(seg[..., None, :], seg[..., :, None])
            risk[group, done + first : done + s + 1] = dots[..., 0, 0].T / n

    for _ in range(n_iterations):
        np.multiply(corr, corr, out=scores)
        np.multiply(scores, inv_norms2, out=scores)
        np.add(scores, penalty, out=scores)
        index = scores.argmax(axis=1)
        index += offsets
        step = corr.take(index)
        step *= learning_rate
        step *= inv_norms2.take(index)
        step = step[:, None]
        rows = cache[index]
        rows *= step
        corr -= rows[:, :width]
        np.subtract(history[s], rows[:, width:], out=history[s + 1])
        s += 1
        if s == CV_HISTORY_STEPS:
            flush()
            history[0] = history[s]
            done, first, s = done + s, 1, 0
    flush()
    return risk


def _cv_curves(problems: list, config: BoostConfig) -> list:
    """The ``boost_cv_curve`` of each ``(response, design, plan)`` problem.

    Each problem's ``Z'Z`` triangle is built once (``_gram``), when its
    first fold is reached, if it holds no more values than the design
    (``_has_gram``), and released after its last fold has run; every fold
    of it takes its inputs from it through ``_Fold``.  The
    folds of all problems are taken in order and run in lockstep batches
    whose stacked state (``_fold_entries`` per fold, at the batch's widest
    design and longest held-out set) stays within ``CV_BATCH_ENTRIES``
    values.  A fold over ``CV_FOLD_ENTRIES`` values, or one that would
    batch alone, runs through ``_gram_path`` by itself, after the batch
    before it.  Either way each fold's risk path has the kernel's bits on
    its ``_Fold``.  The paths are kept in fold order, and each problem's
    curve is one ``np.mean`` over its own folds' paths, taken at the end.
    """
    # each fold's risk path, in fold order, allocated before any Gram that
    # it outlives
    paths = np.empty((sum(plan.n_folds for *_, plan in problems), config.m_stop + 1))
    done = 0

    def run(batch):
        nonlocal done
        rate, m_stop = config.learning_rate, config.m_stop
        if len(batch) > 1:
            paths[done : done + len(batch)] = _lockstep_risks(batch, rate, m_stop)
        else:
            f = _Fold(*batch[0])
            paths[done] = _gram_path(
                f.corr, f.inv_norms2, f.selectable, f.row, f.response, f.columns, rate, m_stop
            )[2]
        done += len(batch)

    batch: list = []
    width = depth = 0
    for y, z, plan in problems:
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if y.shape[0] != plan.assignment.shape[0] or z.shape[0] != y.shape[0]:
            raise ValidationError("data and fold plan have different numbers of rows")
        gram = _gram(z) if _has_gram(*z.shape) else None
        k = z.shape[1]
        for f in range(plan.n_folds):
            train = plan.assignment != f
            fold = (y, z, gram, train, f"fold {f} training data")
            n_out = train.size - int(train.sum())
            alone = _fold_entries(k, n_out) > CV_FOLD_ENTRIES
            entries = _fold_entries(max(width, k), max(depth, n_out))
            if batch and (alone or (len(batch) + 1) * entries > CV_BATCH_ENTRIES):
                run(batch)
                batch, width, depth = [], 0, 0
            if alone:
                run([fold])
                continue
            batch.append(fold)
            width, depth = max(width, k), max(depth, n_out)
        del gram, fold  # a curve's Gram goes with its last fold
    if batch:
        run(batch)
    ends = np.cumsum([plan.n_folds for *_, plan in problems])
    return [np.mean(paths[e - plan.n_folds : e], axis=0) for e, (*_, plan) in zip(ends, problems)]


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

    Each fold's risk path is that of the one boosting kernel
    (``boosting._gram_path``) on its training rows, with its held-out rows
    as the held-out pair.  Its Gram rows are those of the design's ``Z'Z``,
    built once per curve, less the fold's held-out part; a design with
    k + 64 > 2 n, whose ``Z'Z`` triangle would hold more values than the
    design itself, builds none, and each fold computes a Gram row from a
    copy of its training rows when it first selects that column.  Either
    way the path equals the one ``boost`` would take on the training rows
    up to rounding, and an exact tie between columns identical on the
    training rows still goes to the lower index; a tie between columns
    that are only proportional there (a negated copy, say) breaks by
    rounding.  The folds run in lockstep, stacked along a leading
    fold axis, when each fold's Gram and held-out caches hold at most
    ``CV_FOLD_ENTRIES`` values (small designs and held-out sets, as in the
    simulations); otherwise each runs alone through the kernel, which is
    faster there.  Both take the same inputs and the lockstep keeps every
    arithmetic operation of the kernel, so the curve has the same bits
    either way.  The curve holds one ``Z'Z`` triangle while it runs: 2.6 MiB
    at k = 801 and n = 500, about 0.86 of the design.
    """
    return _cv_curves([(response, design, plan)], config)[0]


def choose_stopping_iteration(curve: np.ndarray) -> int:
    """Index of the curve minimum; ties go to the smaller iteration count."""
    if len(curve) == 0:
        raise ValidationError("empty risk curve")
    return int(np.argmin(curve))
