"""Fold construction and the cross-validated stopping rule."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.cluster.vq import ClusterError, kmeans2

import spboost.crossval
from spboost.boosting import BoostConfig, _direct_coefficients, _screen_columns, boost
from spboost.crossval import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    FoldKind,
    FoldPlan,
    _kmeans_restarts,
    boost_cv_curve,
    choose_stopping_iteration,
    make_spatial_folds,
    make_time_folds,
)
from spboost.errors import DegenerateGeometryError, ValidationError
from spboost.panel import ModelSpec
from spboost.pipeline import build_fold_plan, prepare
from spboost.transform import TransformedData
from spboost.panel import Effects

from conftest import make_panel, make_weights


def make_td(y, z):
    return TransformedData(
        response=np.asarray(y, dtype=float),
        design=np.asarray(z, dtype=float),
        names=tuple("c%d" % j for j in range(np.asarray(z).shape[1])),
        effects=Effects.RANDOM,
        fingerprint="test",
    )


# ---------------------------------------------------------------------------
# FoldPlan validation


def test_fold_plan_requires_location_purity():
    # Location 0 changes fold between periods: invalid for spatial folds.
    assignment = np.array([0, 1, 1, 1], dtype=np.int64)
    with pytest.raises(ValidationError):
        FoldPlan(FoldKind.SPATIAL, 2, assignment, n_locations=2, n_periods=2)


def test_fold_plan_requires_period_purity_for_time_folds():
    assignment = np.array([0, 1, 1, 0], dtype=np.int64)
    with pytest.raises(ValidationError):
        FoldPlan(FoldKind.TIME, 2, assignment, n_locations=2, n_periods=2)


def test_fold_plan_rejects_empty_fold():
    assignment = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValidationError):
        FoldPlan(FoldKind.SPATIAL, 2, assignment, n_locations=2, n_periods=2)


def test_fold_plan_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        FoldPlan(FoldKind.SPATIAL, 2, np.zeros(5, dtype=np.int64), 2, 2)


# ---------------------------------------------------------------------------
# Spatial folds


def test_separated_clouds_split_into_their_own_folds():
    rng = np.random.default_rng(0)
    cloud_a = rng.normal(0.0, 0.1, size=(6, 2))
    cloud_b = rng.normal(10.0, 0.1, size=(6, 2))
    pts = np.vstack([cloud_a, cloud_b])
    plan = make_spatial_folds(pts, n_folds=2, n_periods=3, seed=1)
    labels = plan.assignment[:12]
    assert len(set(labels[:6])) == 1
    assert len(set(labels[6:])) == 1
    assert labels[0] != labels[6]


def test_one_fold_per_location_when_k_equals_n():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, size=(7, 2))
    plan = make_spatial_folds(pts, n_folds=7, n_periods=2, seed=3)
    counts = np.bincount(plan.assignment[:7], minlength=7)
    assert np.all(counts == 1)


def test_folds_cover_every_period_of_each_location():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    t = 5
    plan = make_spatial_folds(pts, n_folds=5, n_periods=t, seed=7)
    cube = plan.assignment.reshape(t, 100)
    assert np.all(cube == cube[0])
    assert plan.n_folds == 5
    assert np.all(np.bincount(plan.assignment, minlength=5) > 0)


def test_spatial_folds_are_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(30, 2))
    a = make_spatial_folds(pts, 4, 3, seed=11)
    b = make_spatial_folds(pts, 4, 3, seed=11)
    assert np.array_equal(a.assignment, b.assignment)
    c = make_spatial_folds(pts, 4, 3, seed=12)
    assert c.assignment.shape == a.assignment.shape


def test_spatial_folds_validate_inputs():
    pts = np.random.default_rng(6).uniform(size=(5, 2))
    with pytest.raises(ValidationError):
        make_spatial_folds(pts, 6, 2, seed=0)
    with pytest.raises(ValidationError):
        make_spatial_folds(pts, 1, 2, seed=0)
    bad = pts.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        make_spatial_folds(bad, 2, 2, seed=0)
    with pytest.raises(ValidationError):
        make_spatial_folds(pts.ravel(), 2, 2, seed=0)


# ---------------------------------------------------------------------------
# Batched k-means restarts, bitwise scipy's kmeans2


def _geometry(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, 2))
    if kind == "clustered":
        centres = rng.uniform(0.0, 10.0, size=(4, 2))
        return centres[rng.integers(0, 4, size=n)] + rng.normal(0.0, 0.3, size=(n, 2))
    if kind == "collinear":
        s = rng.uniform(0.0, 1.0, size=n)
        return np.column_stack([s, 2.0 * s + 1.0])
    # three distinct sites: k-means++ must repeat a site for more than three
    # clusters, and the duplicate centre loses its cluster
    return np.repeat(rng.uniform(0.0, 1.0, size=(3, 2)), -(-n // 3), axis=0)[:n]


def _restart_outcome(kmeans, pts, n_folds, seed):
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )
    with warnings.catch_warnings():
        # k-means++ divides by a zero total distance on the duplicated sites
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            centers, labels = kmeans(pts, n_folds, rng)
        except ClusterError:
            return None
    return centers.dtype, centers.shape, centers.tobytes(), labels.tolist()


def _owned_restart(pts, n_folds, rng):
    """One restart through the batched runner, which takes a list of generators."""
    (outcome,) = _kmeans_restarts(pts, n_folds, [rng])
    if outcome is None:
        raise ClusterError("lost a cluster")
    return outcome


def _hundred_iterations(pts, n_folds, rng):
    return kmeans2(pts, n_folds, iter=KMEANS_MAX_ITER, minit="++", missing="raise", rng=rng)


def _seeding_step(pts, n_folds, rng):
    return kmeans2(pts, n_folds, iter=1, minit="++", missing="raise", rng=rng)


def test_kmeans_restart_is_bitwise_the_hundred_iteration_kmeans2():
    lost = 0
    for seed in range(240):
        kind = ("uniform", "clustered", "collinear", "duplicated")[seed % 4]
        n = (30, 100, 500, 2000)[seed // 4 % 4]
        n_folds = 2 + seed // 16 % 7
        pts = _geometry(kind, n, seed)
        expected = _restart_outcome(_hundred_iterations, pts, n_folds, seed)
        assert _restart_outcome(_owned_restart, pts, n_folds, seed) == expected, seed
        lost += expected is None
    assert lost > 0


def test_kmeans_restart_loses_a_cluster_in_the_same_lloyd_step():
    # k-means++ seeds five distinct points on this line and the second Lloyd
    # step empties a cluster, so the error comes from the loop.
    x = [0.0, 0.002, 1.008, 2.007, 3.006, 4.006, 7.01, 7.004, 10.008, 10.007, 11.001,
         14.002, 16.001]
    pts = np.column_stack([x, np.zeros(len(x))])
    assert _restart_outcome(_seeding_step, pts, 5, 8124) is not None
    assert _restart_outcome(_hundred_iterations, pts, 5, 8124) is None
    assert _restart_outcome(_owned_restart, pts, 5, 8124) is None


def test_kmeans_restart_breaks_distance_ties_as_kmeans2():
    # on a small integer lattice many points sit at exactly equal distances
    # from two centres; vq gives them to the lower centre index
    lost = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(40, 2)).astype(float)
        n_folds = 2 + seed % 4
        expected = _restart_outcome(_hundred_iterations, pts, n_folds, seed)
        assert _restart_outcome(_owned_restart, pts, n_folds, seed) == expected, seed
        lost += expected is None
    assert lost < 60


def _fixed_point_restart(pts, n_folds, rng):
    """The per-restart loop that preceded the batched runner, on kmeans2."""
    centers, labels = kmeans2(pts, n_folds, iter=1, minit="++", missing="raise", rng=rng)
    for _ in range(KMEANS_MAX_ITER - 1):
        centers, new_labels = kmeans2(pts, centers, iter=1, minit="matrix", missing="raise")
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def _reference_plan(pts, n_folds, seed):
    """Fold labels of the restart loop on kmeans2, None where it gives up.

    Also returns the number of restarts that lost a cluster.
    """
    best_labels, best_wcss, successes, failures = None, np.inf, 0, 0
    while successes < KMEANS_RESTARTS:
        rng = np.random.Generator(
            np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(successes + failures,))
            )
        )
        try:
            centers, labels = _fixed_point_restart(pts, n_folds, rng)
        except ClusterError:
            failures += 1
            if failures >= KMEANS_RESTARTS:
                return None, failures
            continue
        wcss = float(((pts - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss, best_labels = wcss, labels
        successes += 1
    return best_labels.tolist(), failures


# k-means++ on this line sometimes seeds centres that a Lloyd step empties
_LINE = np.column_stack(
    [
        [0.0, 0.002, 1.008, 2.007, 3.006, 4.006, 7.01, 7.004, 10.008, 10.007, 11.001,
         14.002, 16.001],
        np.zeros(13),
    ]
)

# (points, folds, seed): plans with one lost-cluster retry, plans that give
# up (more folds than the three duplicated sites), and plain plans
_PLAN_CASES = [
    (_LINE, 5, 1),
    (_LINE, 5, 8124),
    (_geometry("uniform", 24, 13), 8, 13),
    (_geometry("collinear", 12, 84), 5, 84),
    (_geometry("clustered", 16, 53), 6, 53),
    (_geometry("duplicated", 30, 1), 4, 1),
    (_geometry("duplicated", 12, 9), 5, 9),
    (_geometry("duplicated", 30, 2), 3, 2),
    (_geometry("uniform", 30, 0), 3, 0),
    (_geometry("clustered", 100, 4), 5, 4),
    (_geometry("collinear", 60, 6), 7, 6),
]


@pytest.mark.parametrize("batch_entries", [None, 64], ids=["default-batches", "small-batches"])
def test_spatial_folds_equal_the_restart_loop_on_kmeans2(monkeypatch, batch_entries):
    if batch_entries is not None:
        # a few restarts per batch, so retries cross batch boundaries
        monkeypatch.setattr(spboost.crossval, "KMEANS_BATCH_ENTRIES", batch_entries)
    retried = aborted = 0
    for pts, n_folds, seed in _PLAN_CASES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected, failures = _reference_plan(pts, n_folds, seed)
        if expected is None:
            aborted += 1
            with pytest.raises(DegenerateGeometryError):
                make_spatial_folds(pts, n_folds, 2, seed)
            continue
        retried += failures > 0
        plan = make_spatial_folds(pts, n_folds, 2, seed)
        assert plan.assignment.tolist() == expected * 2, seed
    assert retried == 5 and aborted == 2


def test_abort_message_counts_failed_restarts_of_all_restarts():
    # three distinct sites cannot hold four clusters: every restart fails
    pts = _geometry("duplicated", 30, 5)
    with pytest.raises(DegenerateGeometryError) as excinfo:
        make_spatial_folds(pts, 4, 2, seed=5)
    message = str(excinfo.value)
    assert f"lost a cluster in {KMEANS_RESTARTS} of {KMEANS_RESTARTS} restarts" in message
    assert "consecutive" not in message


def test_import_leaves_scipy_cluster_unloaded():
    code = (
        "import sys, spboost; "
        "print([m for m in sys.modules if m.startswith('scipy.cluster')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


SCIPY_LINALG_SCRIPT = """
import sys
import numpy as np
import spboost.cli
from spboost import (
    BoostConfig, DgpConfig, ModelSpec, PanelDataset, build_knn_weights, fit_model, generate_panel,
)

def linalg_loaded():
    return any(m.startswith("scipy.linalg") for m in sys.modules)

rng = np.random.default_rng(0)
n, t = 40, 3
pts = rng.uniform(size=(n, 2))
data = PanelDataset(
    response=rng.normal(size=n * t),
    regressors=rng.normal(size=(n * t, 4)),
    regressor_names=("a", "b", "c", "d"),
    location_ids=tuple(map(str, range(n))),
    period_ids=("1", "2", "3"),
    centroids=pts,
)
fit_model(data, build_knn_weights(pts, 5), ModelSpec(), BoostConfig(m_stop=50), n_folds=2)
print(linalg_loaded())
panel, _ = generate_panel(DgpConfig(n_locations=20, n_periods=2, n_candidates=4), 0)
print(linalg_loaded(), panel.n_obs)
"""


def test_fit_on_row_normalized_weights_leaves_scipy_linalg_unloaded():
    # only an LU factorization loads scipy.linalg: the DGP's solve does, a
    # fit on row-normalized weights never factorizes
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_LINALG_SCRIPT], capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["False", "True 40"]


# ---------------------------------------------------------------------------
# Time folds


def test_time_folds_hold_out_one_period_each():
    plan = make_time_folds(4, 3)
    assert plan.n_folds == 3
    cube = plan.assignment.reshape(3, 4)
    for ti in range(3):
        assert np.all(cube[ti] == ti)


def test_time_folds_need_two_periods():
    with pytest.raises(ValidationError):
        make_time_folds(4, 1)


def test_build_fold_plan_requires_centroids_for_spatial():
    data = make_panel(6, 2, 1, with_centroids=False)
    with pytest.raises(ValidationError):
        build_fold_plan(data, FoldKind.SPATIAL, 2, seed=0)
    plan = build_fold_plan(data, FoldKind.TIME, 2, seed=0)
    assert plan.kind is FoldKind.TIME


# ---------------------------------------------------------------------------
# Risk curve


def two_fold_plan(n, t):
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    return FoldPlan(FoldKind.SPATIAL, 2, np.tile(labels, t), n, t)


def test_cv_risk_at_zero_iterations_is_heldout_mean_square(rng):
    n, t, k = 10, 2, 4
    y = rng.normal(size=n * t)
    z = rng.normal(size=(n * t, k))
    plan = two_fold_plan(n, t)
    curve = boost_cv_curve(y, z, plan, BoostConfig(m_stop=5))
    expected = 0.0
    for f in range(2):
        test = plan.assignment == f
        expected += np.mean(y[test] ** 2)
    expected /= 2
    assert abs(curve[0] - expected) <= 1e-10


def test_cv_curve_matches_brute_force_two_fold(rng):
    n, t, k, m, s = 12, 2, 4, 15, 0.1
    y = rng.normal(size=n * t)
    z = rng.normal(size=(n * t, k))
    plan = two_fold_plan(n, t)
    curve = boost_cv_curve(y, z, plan, BoostConfig(learning_rate=s, m_stop=m))

    fold_curves = []
    for f in range(2):
        train = plan.assignment != f
        test = ~train
        fit = boost(make_td(y[train], z[train]), BoostConfig(learning_rate=s, m_stop=m))
        eta = np.zeros(test.sum())
        risks = [np.mean(y[test] ** 2)]
        for j, step in zip(fit.selection_path, fit.increments):
            eta = eta + step * z[test, j]
            risks.append(np.mean((y[test] - eta) ** 2))
        fold_curves.append(risks)
    expected = np.mean(fold_curves, axis=0)
    assert np.allclose(curve, expected, atol=1e-12)


def _direct_reference_path(response, design, learning_rate, n_iterations, active=None):
    """Componentwise boosting that recomputes Z'r from the residual every step.

    Independent of the Gram-update kernel in ``boosting``; ``active`` is a
    boolean mask of selectable columns, and identically zero columns are
    dropped from it as ``_screen_columns`` drops them.  Returns
    (coefficients, selection, increments, risk_path, dead).
    """
    y = np.asarray(response, dtype=float)
    z = np.asarray(design, dtype=float)
    n, k = z.shape
    inv_norms2, selectable, dead = _screen_columns(z, active)

    resid = y.copy()
    coef = np.zeros(k)
    selection = np.empty(n_iterations, dtype=np.int64)
    increments = np.empty(n_iterations)
    risk = np.empty(n_iterations + 1)
    risk[0] = (resid @ resid) / n

    neg_inf = np.full(k, -np.inf)
    for m in range(n_iterations):
        corr = z.T @ resid
        scores = np.where(selectable, corr * corr * inv_norms2, neg_inf)
        j = int(np.argmax(scores))
        step = learning_rate * corr[j] * inv_norms2[j]
        coef[j] += step
        resid -= step * z[:, j]
        selection[m] = j
        increments[m] = step
        risk[m + 1] = (resid @ resid) / n
    return coef, selection, increments, risk, dead


def boost_replay(y, z, plan, cfg, excluded=None):
    """The CV curve replayed fold by fold from the direct reference path.

    ``excluded`` maps a fold to the column indices its boost leaves out.
    Returns the fold-averaged held-out risk and each fold's selection path.
    """
    excluded = excluded or {}
    paths, fold_curves = [], []
    for f in range(plan.n_folds):
        train = plan.assignment != f
        test = ~train
        active = None
        if f in excluded:
            active = np.ones(z.shape[1], dtype=bool)
            active[list(excluded[f])] = False
        _, selection, increments, _, _ = _direct_reference_path(
            y[train], z[train], cfg.learning_rate, cfg.m_stop, active=active
        )
        steps = z[test][:, selection] * increments
        resid = y[test][:, None] - np.cumsum(steps, axis=1)
        risks = np.concatenate([[np.mean(y[test] ** 2)], np.mean(resid**2, axis=0)])
        paths.append(selection)
        fold_curves.append(risks)
    return np.mean(fold_curves, axis=0), paths


def random_fold_plan(rng, n, t, n_folds):
    labels = np.arange(n) % n_folds
    rng.shuffle(labels)
    return FoldPlan(FoldKind.SPATIAL, n_folds, np.tile(labels, t), n, t)


@pytest.mark.parametrize(
    "n, t, k, m_stop",
    [(40, 5, 8, 200), (12, 3, 80, 300), (20, 3, 10, 2000)],
    ids=["tall", "wide", "long"],
)
def test_cv_curve_matches_boost_replay_over_seeds(n, t, k, m_stop):
    # The Gram-cached kernel updates Z'r incrementally, so it may differ from
    # the direct reference, which recomputes Z'r every iteration, only by
    # rounding.
    cfg = BoostConfig(m_stop=m_stop)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n * t, k))
        beta = np.zeros(k)
        beta[rng.choice(k, size=3, replace=False)] = rng.normal(0.0, 2.0, size=3)
        y = z @ beta + rng.normal(size=n * t)
        plan = random_fold_plan(rng, n, t, int(rng.integers(2, 4)))
        curve = boost_cv_curve(y, z, plan, cfg)
        expected, _ = boost_replay(y, z, plan, cfg)
        assert np.max(np.abs(curve - expected) / expected) <= 1e-10, seed
        assert choose_stopping_iteration(curve) == choose_stopping_iteration(expected), seed


@pytest.mark.parametrize(
    "rows, k, m_stop",
    [(200, 8, 200), (36, 80, 300), (60, 10, 2000)],
    ids=["tall", "wide", "long"],
)
def test_boost_matches_direct_reference_over_seeds(rows, k, m_stop):
    # boost() runs the Gram-update kernel; the reference recomputes Z'r
    cfg = BoostConfig(m_stop=m_stop)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        y, z = _sparse_signal(rng, rows, k)
        dead = int(rng.integers(k))
        z[:, dead] = 0.0
        subset = rng.random(k) < 0.6
        subset[dead] = True
        subset[rng.choice(np.setdiff1d(np.arange(k), [dead]))] = True
        td = make_td(y, z)
        for active in (None, subset):
            names = None if active is None else [td.names[i] for i in np.nonzero(active)[0]]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = boost(td, cfg, active_columns=names)
                coef, selection, _, risk, dead_mask = _direct_reference_path(
                    y, z, cfg.learning_rate, m_stop, active=active
                )
            # Once every correlation is at rounding level the argmax is noise:
            # the paths must agree while each step's risk reduction is
            # resolved, and the coefficients and risks over the whole path.
            resolved = risk[:-1] - risk[1:] > 1e-12 * risk[:-1]
            agree = m_stop if resolved.all() else int(np.argmin(resolved))
            assert np.array_equal(fit.selection_path[:agree], selection[:agree]), seed
            assert fit.excluded == tuple(td.names[i] for i in np.nonzero(dead_mask)[0])
            assert fit.excluded == (td.names[dead],)
            scale = np.max(np.abs(coef))
            assert np.max(np.abs(fit.coefficients - coef)) <= 1e-10 * scale, seed
            assert np.max(np.abs(fit.risk_path - risk) / risk) <= 1e-10, seed


def test_direct_coefficients_are_bitwise_the_direct_reference_over_seeds():
    # the preliminary residuals' loop keeps the bits of the direct reference
    for seed in range(50):
        rng = np.random.default_rng(seed)
        rows, k = [(200, 8), (36, 80), (60, 10)][seed % 3]
        y, z = _sparse_signal(rng, rows, k)
        m = int(rng.integers(0, 400))
        expected = _direct_reference_path(y, z, 0.1, m)[0]
        assert np.array_equal(_direct_coefficients(y, z, 0.1, m), expected), seed


def _reference_cv_risk_path(
    response, design, heldout_response, heldout_design, learning_rate, n_iterations, warn_label
):
    """The per-fold kernel before its loop was made allocation-free.

    Takes the held-out design untransposed and allocates its scores and
    updates every iteration; the kernel in ``boosting`` must match it bit
    for bit.
    """
    z = np.asarray(design, dtype=float)
    k = z.shape[1]
    inv_norms2, selectable, _ = _screen_columns(z, None, warn_label)
    neg_inf = np.full(k, -np.inf)

    corr = z.T @ np.asarray(response, dtype=float)
    gram = {}
    d_out = np.array(heldout_response, dtype=float)
    risk_out = np.empty(n_iterations + 1)
    risk_out[0] = (d_out @ d_out) / d_out.shape[0]
    for m in range(n_iterations):
        scores = np.where(selectable, corr * corr * inv_norms2, neg_inf)
        j = int(np.argmax(scores))
        step = learning_rate * corr[j] * inv_norms2[j]
        if j not in gram:
            gram[j] = z.T @ z[:, j]
        corr -= step * gram[j]
        d_out -= step * heldout_design[:, j]
        risk_out[m + 1] = (d_out @ d_out) / d_out.shape[0]
    return risk_out


def _reference_cv_curve(y, z, plan, cfg):
    fold_curves = []
    for f in range(plan.n_folds):
        train = plan.assignment != f
        test = ~train
        fold_curves.append(
            _reference_cv_risk_path(
                y[train], z[train], y[test], z[test], cfg.learning_rate, cfg.m_stop,
                warn_label=f"fold {f} training data",
            )
        )
    return np.mean(fold_curves, axis=0)


def _sparse_signal(rng, rows, k):
    z = rng.normal(size=(rows, k))
    beta = np.zeros(k)
    beta[rng.choice(k, size=3, replace=False)] = rng.normal(0.0, 2.0, size=3)
    return z @ beta + rng.normal(size=rows), z


@pytest.mark.parametrize(
    "n, t, k, m_stop",
    [(40, 5, 8, 200), (12, 3, 80, 300), (20, 3, 10, 2000)],
    ids=["tall", "wide", "long"],
)
def test_cv_curve_is_bitwise_the_reference_kernel_over_seeds(n, t, k, m_stop):
    cfg = BoostConfig(m_stop=m_stop)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        y, z = _sparse_signal(rng, n * t, k)
        plan = random_fold_plan(rng, n, t, int(rng.integers(2, 4)))
        curve = boost_cv_curve(y, z, plan, cfg)
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg)), seed


def test_cv_curve_is_bitwise_the_reference_kernel_on_time_and_unequal_folds():
    cfg = BoostConfig(learning_rate=0.3, m_stop=400)
    n, t, k = 15, 4, 12
    labels = np.repeat([0, 1, 2], [1, 4, 10])
    plans = [
        make_time_folds(n, t),
        FoldPlan(FoldKind.SPATIAL, 3, np.tile(labels, t), n, t),
    ]
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        y, z = _sparse_signal(rng, n * t, k)
        for plan in plans:
            curve = boost_cv_curve(y, z, plan, cfg)
            assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg)), (seed, plan.kind)


def test_cv_curve_is_bitwise_the_reference_kernel_with_a_dead_column_in_one_fold():
    rng = np.random.default_rng(12)
    n, t = 15, 2
    labels = np.arange(n) % 3
    plan = FoldPlan(FoldKind.SPATIAL, 3, np.tile(labels, t), n, t)
    z = rng.normal(size=(n * t, 4))
    z[plan.assignment != 1, 2] = 0.0
    y = z @ np.array([1.0, -0.5, 3.0, 0.0]) + 0.2 * rng.normal(size=n * t)
    cfg = BoostConfig(m_stop=50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = boost_cv_curve(y, z, plan, cfg)
        expected = _reference_cv_curve(y, z, plan, cfg)
    assert np.array_equal(curve, expected)


def test_cv_curve_duplicated_column_tie_goes_to_lower_index():
    rng = np.random.default_rng(11)
    n, t = 12, 2
    plan = two_fold_plan(n, t)
    z = rng.normal(size=(n * t, 5))
    train0 = plan.assignment != 0
    # Column 3 copies column 1 exactly in fold 0's training rows; on its
    # held-out rows it differs, so the curve shows which copy was taken.
    z[train0, 3] = z[train0, 1]
    y = 2.0 * z[:, 1] + 0.3 * rng.normal(size=n * t)
    cfg = BoostConfig(m_stop=60)
    curve = boost_cv_curve(y, z, plan, cfg)
    expected, paths = boost_replay(y, z, plan, cfg)
    assert 1 in paths[0]
    assert 3 not in paths[0]
    assert np.max(np.abs(curve - expected) / expected) <= 1e-10
    # Had fold 0 taken column 3, its held-out risk would differ visibly.
    z_swapped = z.copy()
    z_swapped[~train0, 1] = z[~train0, 3]
    swapped, _ = boost_replay(y, z_swapped, plan, cfg)
    assert np.max(np.abs(curve - swapped) / swapped) > 1e-3


def test_cv_curve_excludes_column_zero_in_one_folds_training_rows():
    rng = np.random.default_rng(12)
    n, t = 15, 2
    labels = np.arange(n) % 3
    plan = FoldPlan(FoldKind.SPATIAL, 3, np.tile(labels, t), n, t)
    z = rng.normal(size=(n * t, 4))
    z[plan.assignment != 1, 2] = 0.0
    y = z @ np.array([1.0, -0.5, 3.0, 0.0]) + 0.2 * rng.normal(size=n * t)
    cfg = BoostConfig(m_stop=50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = boost_cv_curve(y, z, plan, cfg)
    messages = [str(w.message) for w in caught if "identically zero" in str(w.message)]
    assert len(messages) == 1
    assert "(fold 1 training data)" in messages[0]
    assert "indices [2]" in messages[0]
    expected, paths = boost_replay(y, z, plan, cfg, excluded={1: [2]})
    assert 2 in paths[0] and 2 in paths[2]
    assert np.max(np.abs(curve - expected) / expected) <= 1e-10


def test_cv_curve_noiseless_single_column_reaches_zero():
    rng = np.random.default_rng(8)
    n, t = 14, 2
    z = rng.normal(size=(n * t, 3))
    y = 2.0 * z[:, 0]
    plan = two_fold_plan(n, t)
    curve = boost_cv_curve(y, z, plan, BoostConfig(m_stop=300))
    assert np.all(np.diff(curve) <= 1e-12)
    assert curve[-1] <= 1e-6 * curve[0]
    assert choose_stopping_iteration(curve) == len(curve) - 1


def test_cv_curve_rejects_mismatched_rows(rng):
    plan = two_fold_plan(10, 2)
    with pytest.raises(ValidationError):
        boost_cv_curve(rng.normal(size=19), rng.normal(size=(19, 2)), plan, BoostConfig())


def test_choose_stopping_iteration_prefers_smaller_m():
    assert choose_stopping_iteration(np.array([3.0, 1.0, 2.0])) == 1
    assert choose_stopping_iteration(np.array([2.0, 1.0, 1.0])) == 1
    assert choose_stopping_iteration(np.array([5.0])) == 0
    with pytest.raises(ValidationError):
        choose_stopping_iteration(np.array([]))


# ---------------------------------------------------------------------------
# Stopping-rule integration


def test_select_m_opt_is_deterministic():
    data = make_panel(20, 3, 2, seed=15, noise=0.5)
    w, _ = make_weights(20, seed=15, k=3)
    plan = build_fold_plan(data, FoldKind.SPATIAL, 2, seed=21)
    cfg = BoostConfig(m_stop=40)

    def select_m_opt():
        _, _, td = prepare(data, w, ModelSpec(), cfg, plan)
        curve = boost_cv_curve(td.response, td.design, plan, cfg)
        return choose_stopping_iteration(curve), curve

    m1, curve1 = select_m_opt()
    m2, curve2 = select_m_opt()
    assert m1 == m2
    assert np.array_equal(curve1, curve2)
    assert curve1.shape == (41,)
    assert curve1[m1] == curve1.min()
