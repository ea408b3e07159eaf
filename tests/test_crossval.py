"""Fold construction and the cross-validated stopping rule."""

import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.cluster.vq import ClusterError, kmeans2

import spboost.crossval
from spboost.boosting import (
    BoostConfig,
    _direct_coefficients,
    _gram_path,
    _screen_columns,
    _screen_norms,
    boost,
    deselect,
)
from spboost.crossval import (
    CV_DIRECT_SHARE,
    GRAM_BLOCK,
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    FoldKind,
    FoldPlan,
    _Fold,
    _gram,
    _kmeans_restarts,
    boost_cv_curve,
    choose_stopping_iteration,
    make_spatial_folds,
    make_time_folds,
)
from spboost.errors import DegenerateGeometryError, ValidationError
from spboost.panel import ModelSpec
from spboost.pipeline import _prepare_all, build_fold_plan
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


def test_spatial_folds_refuse_a_negative_seed():
    # numpy's SeedSequence would fail on it with a bare ValueError
    pts = np.random.default_rng(6).uniform(size=(5, 2))
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        make_spatial_folds(pts, 2, 2, seed=-1)


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
from spboost.errors import SingularFilterError
from spboost.gmm import VarianceComponents
from spboost.linalg import SpatialFilter, random_effects_whitener
from spboost.weights import SpatialWeights

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
knn = build_knn_weights(pts, 5).matrix
columns = SpatialWeights(knn.T)
SpatialFilter(0.99, columns)  # dominant by columns only
SpatialFilter(0.6, SpatialWeights(2 * knn))  # dominant in neither direction
try:
    SpatialFilter(0.5, SpatialWeights(2 * knn))  # I - W: singular
    refused = False
except SingularFilterError:
    refused = True
random_effects_whitener(VarianceComponents(rho2=0.7, sigma_eps2=1.0, rho1=0.7, sigma_mu2=1.0), columns, 3)
print(linalg_loaded(), refused)
panel, _ = generate_panel(DgpConfig(n_locations=20, n_periods=2, n_candidates=4), 0)
print(linalg_loaded(), panel.n_obs)
"""


def test_fit_on_row_normalized_weights_leaves_scipy_linalg_unloaded():
    # only SpatialFilter.solve loads scipy.linalg, for its LU factorization:
    # the DGP's draws do; a fit, filters dominant by columns or in neither
    # direction, and the whitener on column-stochastic weights never solve
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_LINALG_SCRIPT], capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:3] == ["False", "False True", "True 40"]


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
    [(40, 5, 8, 200), (40, 3, 100, 300), (12, 3, 80, 300), (20, 3, 10, 2000)],
    ids=["tall", "blocked", "wide", "long"],
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


def _reference_path(
    corr, inv_norms2, selectable, gram_row, heldout_response, heldout_design, learning_rate,
    n_iterations,
):
    """The kernel's loop before it was made allocation-free.

    Takes the held-out design untransposed and allocates its scores and
    updates every iteration; ``boosting._gram_path`` must match it bit for
    bit on the same inputs.  Returns (selection, steps, heldout_risk).
    """
    corr = np.array(corr, dtype=float)
    neg_inf = np.full(corr.shape[0], -np.inf)
    gram = {}
    d_out = np.array(heldout_response, dtype=float)
    selection = np.empty(n_iterations, dtype=np.int64)
    steps = np.empty(n_iterations)
    risk_out = np.empty(n_iterations + 1)
    risk_out[0] = (d_out @ d_out) / d_out.shape[0]
    for m in range(n_iterations):
        scores = np.where(selectable, corr * corr * inv_norms2, neg_inf)
        j = int(np.argmax(scores))
        step = learning_rate * corr[j] * inv_norms2[j]
        if j not in gram:
            gram[j] = gram_row(j)
        corr -= step * gram[j]
        d_out -= step * heldout_design[:, j]
        selection[m] = j
        steps[m] = step
        risk_out[m + 1] = (d_out @ d_out) / d_out.shape[0]
    return selection, steps, risk_out


def _reference_boost_path(
    response, design, heldout_response, heldout_design, learning_rate, n_iterations, active=None
):
    """``_reference_path`` on the inputs ``boost`` passes: ``Z'y``, its own
    screen and the Gram columns ``Z'z_j``; ``active`` masks the selectable
    columns as the kernel's does."""
    z = np.asarray(design, dtype=float)
    inv_norms2, selectable, _ = _screen_columns(z, active)
    return _reference_path(
        z.T @ np.asarray(response, dtype=float), inv_norms2, selectable, lambda j: z.T @ z[:, j],
        heldout_response, heldout_design, learning_rate, n_iterations,
    )


def _reference_fold(y, z, train, warn_label):
    """A fold's inputs as ``crossval._Fold`` derives them, written out.

    ``Z'Z`` is assembled in full from the same upper block products,
    each block's transpose filling the rows below it, while its triangle
    holds no more values than the design (k + ``GRAM_BLOCK`` <= 2 n);
    otherwise the correlations, norms and Gram rows are those ``boost``
    takes on a copy of the training rows.  The copies on the training rows
    are found by brute force.  Returns (corr, inv_norms2, selectable,
    gram_row).
    """
    n, k = z.shape
    zt = z[train]
    wide = k + GRAM_BLOCK > 2 * n
    if wide:
        corr = zt.T @ y[train]
        norms2 = np.einsum("ij,ij->j", zt, zt)
    else:
        corr = z.T @ np.where(train, y, 0.0)
        norms2 = np.einsum("ij,i,ij->j", z, train.astype(float), z)
    inv_norms2, selectable, _ = _screen_norms(norms2, None, warn_label)
    z_out = np.ascontiguousarray(z[~train].T)
    if not wide:
        g = np.empty((k, k))
        for s in range(0, k, GRAM_BLOCK):
            block = z[:, s : s + GRAM_BLOCK].T @ z[:, s:]
            g[s : s + GRAM_BLOCK, s:] = block
            g[s + GRAM_BLOCK :, s : s + GRAM_BLOCK] = block[:, GRAM_BLOCK:].T
        direct = norms2 < CV_DIRECT_SHARE * np.diag(g)
    keys = np.stack((corr, norms2)).view(np.int64)
    rep = np.arange(k)
    for j in range(k):
        for i in np.flatnonzero((keys[:, :j] == keys[:, j : j + 1]).all(axis=0)):
            if rep[i] == i and np.array_equal(z[train, i], z[train, j]):
                rep[j] = i
                break

    def gram_row(j):
        if wide:
            return (zt.T @ zt[:, j])[rep]
        zj = np.where(train, z[:, j], 0.0)
        if direct[j]:
            return (z.T @ zj)[rep]
        row = g[j] - z_out @ z_out[j]
        row[direct] = zj @ z[:, direct]
        return row[rep]

    return corr, inv_norms2, selectable, gram_row


def _reference_cv_curve(y, z, plan, cfg):
    fold_curves = []
    for f in range(plan.n_folds):
        train = plan.assignment != f
        test = ~train
        fold_curves.append(
            _reference_path(
                *_reference_fold(y, z, train, f"fold {f} training data"),
                y[test], z[test], cfg.learning_rate, cfg.m_stop,
            )[2]
        )
    return np.mean(fold_curves, axis=0)


def _sparse_signal(rng, rows, k):
    z = rng.normal(size=(rows, k))
    beta = np.zeros(k)
    beta[rng.choice(k, size=3, replace=False)] = rng.normal(0.0, 2.0, size=3)
    return z @ beta + rng.normal(size=rows), z


@pytest.mark.parametrize(
    "n, t, k, m_stop",
    [(40, 5, 8, 200), (40, 3, 100, 300), (12, 3, 80, 300), (20, 3, 10, 2000)],
    ids=["tall", "blocked", "wide", "long"],
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


def _assert_kernel_is_the_reference(y, z, y_out, z_out, learning_rate, n_iterations, active=None):
    inv_norms2, selectable, _ = _screen_columns(z, active)
    selection, steps, risk = _gram_path(
        z.T @ y, inv_norms2, selectable, lambda j: z.T @ z[:, j],
        y_out, np.ascontiguousarray(z_out.T), learning_rate, n_iterations,
    )
    expected = _reference_boost_path(y, z, y_out, z_out, learning_rate, n_iterations, active)
    assert selection.dtype == np.int64 and steps.dtype == np.float64
    for got, want in zip((selection, steps, risk), expected):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_kernel_is_bitwise_the_reference_on_a_deselection_refit():
    # the refit's active subset masks columns, so its scores carry the -inf
    # penalty; boost() passes its training rows as the held-out pair
    cfg = BoostConfig(m_stop=300)
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        y, z = _sparse_signal(rng, 60, 20)
        td = make_td(y, z)
        fit = boost(td, cfg)
        result = deselect(td, cfg, fit, threshold=0.01)
        active = np.isin(np.array(result.names), result.retained)
        assert 0 < active.sum() < z.shape[1], seed
        _assert_kernel_is_the_reference(y, z, y, z, cfg.learning_rate, fit.m_used, active)
        # deselect() refits through boost(), which passes a strided view
        expected = _reference_boost_path(y, z, y, z, cfg.learning_rate, fit.m_used, active)
        assert np.array_equal(result.refit.selection_path, expected[0]), seed
        assert np.array_equal(result.refit.risk_path, expected[2]), seed


def test_kernel_at_zero_iterations_is_bitwise_the_reference():
    # an empty int64 selection, empty float64 steps and a one-entry risk
    rng = np.random.default_rng(3)
    y, z = _sparse_signal(rng, 40, 6)
    _assert_kernel_is_the_reference(y[:30], z[:30], y[30:], z[30:], 0.1, 0)


def test_kernel_is_bitwise_the_reference_on_an_integer_held_out_response():
    rng = np.random.default_rng(5)
    y, z = _sparse_signal(rng, 50, 8)
    y_out = np.rint(4.0 * y[35:]).astype(np.int64)
    _assert_kernel_is_the_reference(y[:35], z[:35], y_out, z[35:], 0.2, 150)


def test_lone_fold_kernel_peak_memory():
    # A lone fold keeps at most its Gram row for each distinct column it
    # selects, plus one entry per iteration of its paths; its curve's Z'Z,
    # its held-out columns and its starting correlations are the caller's.
    # The Z'Z is built once per curve, in blocks, and shared by the curve's
    # folds (see test_cv_curve_peak_memory_is_one_gram_and_one_fold).
    n_train, n_out, k, m_stop = 390, 100, 801, 1000
    y, z = _sparse_signal(np.random.default_rng(4), n_train + n_out, k)
    train = np.arange(n_train + n_out) < n_train
    fold = _Fold(y, z, _gram(z), train, None)
    tracemalloc.start()
    try:
        selection = _gram_path(
            fold.corr, fold.inv_norms2, fold.selectable, fold.row, fold.response, fold.columns,
            0.1, m_stop,
        )[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    distinct = len(np.unique(selection))
    assert distinct > 100
    assert peak < (distinct + 32) * (k + n_out) * 8 + 200 * m_stop


def test_cv_curve_peak_memory_is_one_gram_and_one_fold(monkeypatch):
    # fit-wide's shape: five alone folds of 100 held-out rows at k = 801.
    # The curve holds one Z'Z triangle, one fold's held-out columns and the
    # lone-fold bound above, never a copy of a fold's training rows.
    # Measured and dropped: the full k x k Z'Z (5.1 MB here) peaked 2.7 MB
    # higher in fit-wide loops at a fixed op count.
    n, t, k, m_stop = 100, 5, 801, 1000
    rng = np.random.default_rng(4)
    y, z = _sparse_signal(rng, n * t, k)
    plan = random_fold_plan(rng, n, t, 5)
    n_out, n_train = n * t // 5, n * t - n * t // 5
    distinct = []
    real = spboost.crossval._gram_path

    def counted(*args):
        selection, steps, risk = real(*args)
        distinct.append(len(np.unique(selection)))
        return selection, steps, risk

    monkeypatch.setattr(spboost.crossval, "_gram_path", counted)
    tracemalloc.start()
    try:
        boost_cv_curve(y, z, plan, BoostConfig(m_stop=m_stop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(distinct) == 5 and min(distinct) > 100
    gram = sum(block.nbytes for block in _gram(z))
    assert gram < k * k * 8
    fold = k * n_out * 8 + (max(distinct) + 32) * (k + n_out) * 8 + 200 * m_stop
    assert fold < n_train * k * 8
    assert peak < gram + fold


def _batch_problems():
    """Three problems of unequal shape: unequal spatial folds, time folds, a dead column.

    The dead column is identically zero in fold 1's training rows of the
    third problem only.
    """
    n, t, k = 15, 4, 12
    rng = np.random.default_rng(31)
    labels = np.repeat([0, 1, 2], [1, 4, 10])
    unequal = FoldPlan(FoldKind.SPATIAL, 3, np.tile(labels, t), n, t)
    y1, z1 = _sparse_signal(rng, n * t, k)
    y2, z2 = _sparse_signal(rng, n * t, k - 3)
    n3, t3 = 15, 2
    plan3 = FoldPlan(FoldKind.SPATIAL, 3, np.tile(np.arange(n3) % 3, t3), n3, t3)
    z3 = rng.normal(size=(n3 * t3, 4))
    z3[plan3.assignment != 1, 2] = 0.0
    y3 = z3 @ np.array([1.0, -0.5, 3.0, 0.0]) + 0.2 * rng.normal(size=n3 * t3)
    return [(y1, z1, unequal), (y2, z2, make_time_folds(n, t)), (y3, z3, plan3)]


def _spy(monkeypatch, name):
    """Record the calls of a ``spboost.crossval`` function while still running it."""
    calls = []
    real = getattr(spboost.crossval, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spboost.crossval, name, spy)
    return calls


def test_cv_curves_of_a_mixed_batch_are_bitwise_the_reference_kernel(monkeypatch):
    problems = _batch_problems()
    cfg = BoostConfig(learning_rate=0.3, m_stop=400)
    batches = _spy(monkeypatch, "_lockstep_risks")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curves = spboost.crossval._cv_curves(problems, cfg)
    # every fold of the three problems ran in one lockstep batch
    assert [len(b[0]) for b in batches] == [3 + 4 + 3]
    messages = [str(w.message) for w in caught if "identically zero" in str(w.message)]
    assert messages == [
        "excluding 1 identically zero column(s) from boosting "
        "(fold 1 training data): indices [2]"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (y, z, plan), curve in zip(problems, curves):
            assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg)), plan.kind
            assert np.array_equal(curve, boost_cv_curve(y, z, plan, cfg))


def test_cv_curves_split_by_the_entry_cap_keep_their_bits(monkeypatch):
    problems = _batch_problems()
    cfg = BoostConfig(m_stop=300)
    # room for two or three folds of the first two problems per batch
    monkeypatch.setattr(
        spboost.crossval, "CV_BATCH_ENTRIES", 3 * spboost.crossval._fold_entries(12, 15)
    )
    batches = _spy(monkeypatch, "_lockstep_risks")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curves = spboost.crossval._cv_curves(problems, cfg)
        expected = [_reference_cv_curve(y, z, plan, cfg) for y, z, plan in problems]
    sizes = [len(b[0]) for b in batches]
    assert len(sizes) >= 3 and max(sizes) <= 3 and sum(sizes) <= 10
    for curve, reference in zip(curves, expected):
        assert np.array_equal(curve, reference)


def test_a_fold_over_the_entry_cap_runs_alone_through_the_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    n, t = 12, 3
    wide = _sparse_signal(rng, n * t, 60) + (random_fold_plan(rng, n, t, 3),)
    narrow = _batch_problems()[:2]
    cfg = BoostConfig(m_stop=200)
    cap = 4 * spboost.crossval._fold_entries(12, 15)
    assert spboost.crossval._fold_entries(60, 12) > cap
    monkeypatch.setattr(spboost.crossval, "CV_BATCH_ENTRIES", cap)
    batches = _spy(monkeypatch, "_lockstep_risks")
    alone = _spy(monkeypatch, "_gram_path")
    problems = [narrow[0], wide, narrow[1]]
    curves = spboost.crossval._cv_curves(problems, cfg)
    # each of the wide problem's three folds ran alone, no lockstep batch
    # held one of them, and the narrow problems still batched
    assert [a[0].shape[0] for a in alone].count(60) == 3
    assert batches and all(z.shape[1] < 60 for b in batches for _, z, *_ in b[0])
    for (y, z, plan), curve in zip(problems, curves):
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg))


def _kernel_risk(fold, cfg):
    f = _Fold(*fold)
    return _gram_path(
        f.corr, f.inv_norms2, f.selectable, f.row, f.response, f.columns,
        cfg.learning_rate, cfg.m_stop,
    )[2]


def _held_out_fold(rng, n_out, b):
    """Fold b: random rows of which ``n_out`` are held out."""
    rows = n_out + int(rng.integers(10, 60))
    y, z = _sparse_signal(rng, rows, int(rng.integers(4, 15)))
    test = np.zeros(rows, dtype=bool)
    test[rng.choice(rows, size=n_out, replace=False)] = True
    return y, z, _gram(z), ~test, f"fold {b} training data"


def test_lockstep_risks_grouped_by_held_out_length_are_bitwise_the_kernel():
    # held-out lengths drawn with repeats, so that some lengths are shared by
    # several folds and others belong to one fold alone; m_stop not a
    # multiple of the history length, so the last flush is a partial one
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(400 + seed)
        cfg = BoostConfig(learning_rate=float(rng.uniform(0.05, 0.5)), m_stop=int(rng.integers(20, 90)))
        pool = rng.integers(3, 40, size=4)
        folds = []
        for b in range(int(rng.integers(2, 14))):
            n_out = int(pool[rng.integers(0, 4)] if rng.uniform() < 0.6 else rng.integers(3, 40))
            folds.append(_held_out_fold(rng, n_out, b))
        cases.append((seed, cfg, folds))
    # lengths falling with repeats, so that no length's folds are adjacent
    # or in order
    rng = np.random.default_rng(412)
    folds = [_held_out_fold(rng, n_out, b) for b, n_out in enumerate([30, 20, 30, 10, 20])]
    cases.append(("falling", BoostConfig(learning_rate=0.2, m_stop=45), folds))
    shared = unique = 0
    for seed, cfg, folds in cases:
        lengths = [int((~f[3]).sum()) for f in folds]
        shared += sum(lengths.count(n) > 1 for n in lengths)
        unique += sum(lengths.count(n) == 1 for n in lengths)
        risks = spboost.crossval._lockstep_risks(folds, cfg.learning_rate, cfg.m_stop)
        for b, fold in enumerate(folds):
            assert np.array_equal(risks[b], _kernel_risk(fold, cfg)), (seed, b, lengths)
    assert shared >= 20 and unique >= 20, (shared, unique)


def test_lockstep_screens_its_folds_in_fold_order():
    # the folds' held-out lengths fall (10, 4 and 1 locations); column f + 1
    # is nonzero on fold f's rows alone, so it is dead in fold f's training
    # rows
    n, t = 15, 2
    labels = np.repeat([0, 1, 2], [10, 4, 1])
    plan = FoldPlan(FoldKind.SPATIAL, 3, np.tile(labels, t), n, t)
    rng = np.random.default_rng(9)
    z = rng.normal(size=(n * t, 4))
    for f in range(3):
        z[plan.assignment != f, f + 1] = 0.0
    y = z @ np.array([1.0, 2.0, -1.0, 0.5]) + 0.1 * rng.normal(size=n * t)
    folds = [(y, z, _gram(z), plan.assignment != f, f"fold {f} training data") for f in range(3)]
    cfg = BoostConfig(m_stop=40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        risks = spboost.crossval._lockstep_risks(folds, cfg.learning_rate, cfg.m_stop)
    assert [str(w.message) for w in caught] == [
        "excluding 1 identically zero column(s) from boosting "
        f"(fold {f} training data): indices [{f + 1}]"
        for f in range(3)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f, fold in enumerate(folds):
            assert np.array_equal(risks[f], _kernel_risk(fold, cfg)), f


def _simulation_shaped_problems(rng, n_problems):
    """Problems shaped as ``simulate``'s defaults: n = 100, t = 5, 41 columns,
    five folds of 18 to 22 locations (90 to 110 held-out rows)."""
    n, t, k = 100, 5, 41
    labels = np.repeat(np.arange(5), [19, 18, 21, 22, 20])
    problems = []
    for _ in range(n_problems):
        y, z = _sparse_signal(rng, n * t, k)
        plan = FoldPlan(FoldKind.SPATIAL, 5, np.tile(rng.permutation(labels), t), n, t)
        problems.append((y, z, plan))
    return problems


def test_the_folds_of_ten_simulated_replications_share_one_batch(monkeypatch):
    problems = _simulation_shaped_problems(np.random.default_rng(17), 10)
    cfg = BoostConfig(m_stop=60)
    batches = _spy(monkeypatch, "_lockstep_risks")
    alone = _spy(monkeypatch, "_gram_path")
    curves = spboost.crossval._cv_curves(problems, cfg)
    assert [len(b[0]) for b in batches] == [50] and alone == []
    for (y, z, plan), curve in zip(problems, curves):
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg))


@pytest.mark.parametrize(
    "n, t, k", [(2000, 5, 41), (100, 5, 801)], ids=["2000 held-out rows", "801 columns"]
)
def test_a_long_or_wide_fold_runs_alone_through_the_kernel(monkeypatch, n, t, k):
    rng = np.random.default_rng(k)
    small = _simulation_shaped_problems(rng, 2)
    large = _sparse_signal(rng, n * t, k) + (random_fold_plan(rng, n, t, 5),)
    assert spboost.crossval._fold_entries(k, n * t // 5) > spboost.crossval.CV_FOLD_ENTRIES
    cfg = BoostConfig(m_stop=20)
    batches = _spy(monkeypatch, "_lockstep_risks")
    alone = _spy(monkeypatch, "_gram_path")
    problems = [small[0], large, small[1]]
    curves = spboost.crossval._cv_curves(problems, cfg)
    # the large problem's folds ran one at a time, in order between the
    # batches of the small problems before and after it
    assert [a[0].shape[0] for a in alone] == [k] * 5
    assert [len(b[0]) for b in batches] == [5, 5]
    for (y, z, plan), curve in zip(problems, curves):
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg))


def _duplicated_column_problem():
    """Column 3 copies column 1 exactly in fold 0's training rows only."""
    rng = np.random.default_rng(11)
    n, t = 12, 2
    plan = two_fold_plan(n, t)
    z = rng.normal(size=(n * t, 5))
    train0 = plan.assignment != 0
    z[train0, 3] = z[train0, 1]
    y = 2.0 * z[:, 1] + 0.3 * rng.normal(size=n * t)
    return y, z, plan


def test_cv_curve_duplicated_column_tie_goes_to_lower_index():
    # On its held-out rows column 3 differs from column 1, so the curve
    # shows which copy was taken.
    y, z, plan = _duplicated_column_problem()
    train0 = plan.assignment != 0
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


def test_cv_curve_duplicated_column_tie_alone_is_bitwise_the_lockstep(monkeypatch):
    # the same tie through the lone-fold path: both folds run alone, take the
    # same inputs and so give the lockstep's bits
    y, z, plan = _duplicated_column_problem()
    cfg = BoostConfig(m_stop=60)
    lockstep = boost_cv_curve(y, z, plan, cfg)
    monkeypatch.setattr(spboost.crossval, "CV_FOLD_ENTRIES", 0)
    batches = _spy(monkeypatch, "_lockstep_risks")
    alone = _spy(monkeypatch, "_gram_path")
    curve = boost_cv_curve(y, z, plan, cfg)
    assert batches == [] and len(alone) == 2
    assert np.array_equal(curve, lockstep)
    assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg))


@pytest.mark.parametrize("fold_entries", [65_536, 0], ids=["lockstep", "alone"])
def test_cv_curve_keeps_a_column_small_on_training_rows(monkeypatch, fold_entries):
    # Column 9 is about 1e-6 on fold 0's training rows and O(1) on its
    # held-out rows, so its full-panel Gram entries are about 1e6 times its
    # training ones; fold 0 selects it, with steps of order 1e5.  The
    # curve must still follow the direct reference, which recomputes Z'r.
    monkeypatch.setattr(spboost.crossval, "CV_FOLD_ENTRIES", fold_entries)
    n, t, k = 20, 3, 10
    cfg = BoostConfig(m_stop=300)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        plan = two_fold_plan(n, t)
        y, z = _sparse_signal(rng, n * t, k)
        z[:, 9] = rng.normal(size=n * t)
        z[plan.assignment != 0, 9] *= 1e-6
        curve = boost_cv_curve(y, z, plan, cfg)
        expected, paths = boost_replay(y, z, plan, cfg)
        assert 9 in paths[0], seed
        assert np.max(np.abs(curve - expected) / expected) <= 1e-10, seed
        assert choose_stopping_iteration(curve) == choose_stopping_iteration(expected), seed
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg)), seed


@pytest.mark.parametrize("fold_entries", [65_536, 0], ids=["lockstep", "alone"])
def test_cv_curve_with_a_negated_column_follows_the_replay(monkeypatch, fold_entries):
    # Column 3 is column 1 negated on every row.  The two tie exactly on the
    # training rows, but only identical copies share their Gram entries, so
    # this tie breaks by rounding; either copy gives the same held-out risk.
    monkeypatch.setattr(spboost.crossval, "CV_FOLD_ENTRIES", fold_entries)
    cfg = BoostConfig(m_stop=200)
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        plan = random_fold_plan(rng, 20, 3, 3)
        y, z = _sparse_signal(rng, 60, 6)
        z[:, 3] = -z[:, 1]
        y += 2.0 * z[:, 1]
        curve = boost_cv_curve(y, z, plan, cfg)
        expected, paths = boost_replay(y, z, plan, cfg)
        assert all(1 in path for path in paths), seed
        assert np.max(np.abs(curve - expected) / expected) <= 1e-10, seed
        assert choose_stopping_iteration(curve) == choose_stopping_iteration(expected), seed
        assert np.array_equal(curve, _reference_cv_curve(y, z, plan, cfg)), seed


def test_cv_curve_past_the_gram_bound_builds_no_gram(monkeypatch):
    # k + GRAM_BLOCK > 2 n: the Z'Z triangle would hold more values than
    # the design, so each fold takes Gram row j from a copy of its training
    # rows when it first selects column j, as boost() on them would, and
    # the curve holds no k x k array, only one fold's copy at a time.
    n, t, k, m_stop = 40, 5, 400, 300
    rng = np.random.default_rng(8)
    y, z = _sparse_signal(rng, n * t, k)
    plan = random_fold_plan(rng, n, t, 5)
    assert k + GRAM_BLOCK > 2 * n * t
    n_out, n_train = n * t // 5, n * t - n * t // 5
    expected = _reference_cv_curve(y, z, plan, BoostConfig(m_stop=m_stop))

    def no_gram(z):
        raise AssertionError("a Z'Z past the bound")

    monkeypatch.setattr(spboost.crossval, "_gram", no_gram)
    distinct = []
    real = spboost.crossval._gram_path

    def counted(*args):
        selection, steps, risk = real(*args)
        distinct.append(len(np.unique(selection)))
        return selection, steps, risk

    monkeypatch.setattr(spboost.crossval, "_gram_path", counted)
    tracemalloc.start()
    try:
        curve = boost_cv_curve(y, z, plan, BoostConfig(m_stop=m_stop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(curve, expected)
    # each fold has the bits of boost() on its training rows
    folds = [plan.assignment == f for f in range(5)]
    paths = [
        _reference_boost_path(y[~out], z[~out], y[out], z[out], 0.1, m_stop)[2] for out in folds
    ]
    assert np.array_equal(curve, np.mean(paths, axis=0))
    assert len(distinct) == 5
    fold = k * n_out * 8 + (max(distinct) + 32) * (k + n_out) * 8 + 200 * m_stop
    assert peak < n_train * k * 8 + fold
    assert peak < k * k * 8


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
        _, _, td = _prepare_all([(data, w, plan)], ModelSpec(), cfg)[0]
        curve = boost_cv_curve(td.response, td.design, plan, cfg)
        return choose_stopping_iteration(curve), curve

    m1, curve1 = select_m_opt()
    m2, curve2 = select_m_opt()
    assert m1 == m2
    assert np.array_equal(curve1, curve2)
    assert curve1.shape == (41,)
    assert curve1[m1] == curve1.min()
