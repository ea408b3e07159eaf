"""Data generating process, selection metrics, and the experiment runner."""

import numpy as np
import pytest

import spboost.crossval
import spboost.pipeline
import spboost.simulate
from spboost.boosting import BoostConfig
from spboost.errors import AlignmentError, ValidationError
from spboost.panel import INTERCEPT_NAME, LAG_PREFIX, ModelSpec
from spboost.pipeline import fit_model
from spboost.simulate import (
    DEFAULT_TRUE_COEFFICIENTS,
    LEVEL_HALF_WIDTH,
    SHOCK_HALF_WIDTH,
    DgpConfig,
    _stream,
    draw_innovations,
    draw_location_effects,
    evaluate_mse,
    evaluate_selection,
    generate_panel,
    run_experiment,
)


# ---------------------------------------------------------------------------
# Configuration


def test_default_truth_matches_design_values():
    assert DEFAULT_TRUE_COEFFICIENTS == {
        INTERCEPT_NAME: 1.0,
        "x1": 3.5,
        "x2": -2.5,
        LAG_PREFIX + "x1": -4.0,
        LAG_PREFIX + "x2": 3.0,
    }
    cfg = DgpConfig()
    assert cfg.true_coefficients == dict(DEFAULT_TRUE_COEFFICIENTS)
    assert cfg.n_candidates == 40
    assert cfg.n_base_regressors == 20


def test_config_validation():
    with pytest.raises(ValidationError):
        DgpConfig(n_candidates=7)  # odd
    with pytest.raises(ValidationError):
        DgpConfig(n_candidates=2)  # too few
    with pytest.raises(ValidationError):
        DgpConfig(rho1=1.0)
    with pytest.raises(ValidationError):
        DgpConfig(sigma_eps2=0.0)
    with pytest.raises(ValidationError):
        DgpConfig(knn_k=100, n_locations=100)
    with pytest.raises(ValidationError):
        DgpConfig(true_coefficients={"x999": 1.0})
    with pytest.raises(ValidationError):
        DgpConfig(n_replications=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", -1, "seed must be non-negative"),
        ("sigma_eps2", float("nan"), "variances must be finite"),
        ("sigma_eps2", float("inf"), "variances must be finite"),
        ("sigma_mu2", float("inf"), "variances must be finite"),
        ("sigma_mu2", float("nan"), "variances must be finite"),
    ],
)
def test_config_refuses_negative_seed_and_non_finite_variances(field, value, message):
    with pytest.raises(ValidationError, match=message):
        DgpConfig(**{field: value})


# ---------------------------------------------------------------------------
# Panel generation


def test_zero_autocorrelation_noise_is_effects_plus_innovations():
    cfg = DgpConfig(
        n_locations=20, n_periods=4, n_candidates=6, rho1=0.0, rho2=0.0, seed=3
    )
    data, weights = generate_panel(cfg, 0)
    n, t, p = cfg.n_locations, cfg.n_periods, cfg.n_base_regressors

    # Replay the replication stream in the documented draw order.
    rng = _stream(cfg.seed, 1, 0)
    level = rng.uniform(-LEVEL_HALF_WIDTH, LEVEL_HALF_WIDTH, size=(n, p))
    shock = rng.uniform(-SHOCK_HALF_WIDTH, SHOCK_HALF_WIDTH, size=(t, n, p))
    x = (level[None, :, :] + shock).reshape(n * t, p)
    mu = draw_location_effects(rng, n, cfg.sigma_mu2)
    eps = draw_innovations(rng, n, t, cfg.sigma_eps2)
    assert np.array_equal(data.regressors, x)

    lag = np.einsum(
        "ij,tjk->tik", weights.matrix, x.reshape(t, n, p)
    ).reshape(n * t, p)
    base_index = {s: j for j, s in enumerate(cfg.base_names)}
    eta = np.zeros(n * t)
    for name, coef in cfg.true_coefficients.items():
        if name == INTERCEPT_NAME:
            eta += coef
        elif name.startswith(LAG_PREFIX):
            eta += coef * lag[:, base_index[name[len(LAG_PREFIX):]]]
        else:
            eta += coef * x[:, base_index[name]]
    noise = data.response - eta
    expected = np.tile(mu, t) + eps.reshape(-1)
    assert np.allclose(noise, expected, atol=1e-10)


def test_location_effect_variance_obeys_law_of_large_numbers():
    rng = np.random.default_rng(17)
    draws = draw_location_effects(rng, 100_000, 10.0)
    assert abs(np.var(draws) - 10.0) <= 0.03 * 10.0


def test_replications_are_order_independent():
    cfg = DgpConfig(n_locations=15, n_periods=3, n_candidates=6, n_replications=5)
    geometry = cfg.geometry()
    fresh, _ = generate_panel(cfg, 3, geometry=geometry)
    generate_panel(cfg, 0, geometry=geometry)
    generate_panel(cfg, 1, geometry=geometry)
    again, _ = generate_panel(cfg, 3, geometry=geometry)
    assert np.array_equal(fresh.response, again.response)
    assert np.array_equal(fresh.regressors, again.regressors)
    other, _ = generate_panel(cfg, 1, geometry=geometry)
    assert not np.array_equal(fresh.response, other.response)


def test_geometry_is_shared_across_replications():
    cfg = DgpConfig(n_locations=15, n_periods=3, n_candidates=6)
    _, w0 = generate_panel(cfg, 0)
    _, w1 = generate_panel(cfg, 1)
    assert np.array_equal(w0.matrix, w1.matrix)


def test_replication_index_is_validated():
    cfg = DgpConfig(
        n_locations=10, n_periods=2, n_candidates=4, knn_k=3, n_replications=2
    )
    with pytest.raises(ValidationError):
        generate_panel(cfg, 2)
    with pytest.raises(ValidationError):
        generate_panel(cfg, -1)


# ---------------------------------------------------------------------------
# Selection metrics


TRUTH = {INTERCEPT_NAME: 1.0, "x1": 3.5, "x2": -2.5}
NAMES = (INTERCEPT_NAME, "x1", "x2", "x3", "x4")


def test_perfect_selection_scores_one_one():
    coefs = np.array([1.0, 3.0, -2.0, 0.0, 0.0])
    assert evaluate_selection(coefs, NAMES, TRUTH) == (1.0, 1.0)


def test_empty_selection_scores_zero_one():
    coefs = np.zeros(5)
    assert evaluate_selection(coefs, NAMES, TRUTH) == (0.0, 1.0)


def test_full_selection_scores_one_zero():
    coefs = np.ones(5)
    assert evaluate_selection(coefs, NAMES, TRUTH) == (1.0, 0.0)


def test_intercept_is_ignored_by_selection_rates():
    with_intercept = np.array([99.0, 3.0, -2.0, 0.0, 0.0])
    without = np.array([0.0, 3.0, -2.0, 0.0, 0.0])
    assert evaluate_selection(with_intercept, NAMES, TRUTH) == evaluate_selection(
        without, NAMES, TRUTH
    )


def test_selection_requires_aligned_names():
    with pytest.raises(AlignmentError):
        evaluate_selection(np.zeros(3), NAMES, TRUTH)
    with pytest.raises(AlignmentError):
        evaluate_selection(np.zeros(2), ("x3", "x4"), TRUTH)


def test_mse_is_zero_for_exact_coefficients():
    coefs = np.array([1.0, 3.5, -2.5, 0.0, 0.0])
    assert evaluate_mse(coefs, NAMES, TRUTH) == 0.0


def test_mse_single_error_arithmetic():
    names = (INTERCEPT_NAME,) + tuple(f"x{j + 1}" for j in range(40))
    coefs = np.zeros(41)
    truth = {"x1": 0.2}
    assert evaluate_mse(coefs, names, truth) == pytest.approx(0.2**2 / 40)


def test_mse_ignores_intercept_error():
    coefs = np.array([500.0, 3.5, -2.5, 0.0, 0.0])
    assert evaluate_mse(coefs, NAMES, TRUTH) == 0.0


def test_mse_validates_alignment():
    with pytest.raises(AlignmentError):
        evaluate_mse(np.zeros(3), NAMES, TRUTH)
    with pytest.raises(AlignmentError):
        evaluate_mse(np.zeros(1), (INTERCEPT_NAME,), TRUTH)


# ---------------------------------------------------------------------------
# Experiment runner


def small_cfg(**kw):
    defaults = dict(
        n_locations=25,
        n_periods=3,
        n_candidates=6,
        rho1=0.0,
        rho2=0.0,
        knn_k=3,
        n_replications=1,
        seed=5,
    )
    defaults.update(kw)
    return DgpConfig(**defaults)


def test_single_replication_metrics_are_deterministic():
    cfg = small_cfg()
    kwargs = dict(
        methods=("fgls", "ltb", "des"),
        boost_config=BoostConfig(m_stop=150),
        n_folds=2,
    )
    a = run_experiment(cfg, **kwargs)
    b = run_experiment(cfg, **kwargs)
    for method in a.methods:
        ma, mb = a.per_method[method], b.per_method[method]
        assert (ma.tpr, ma.tnr, ma.mse) == (mb.tpr, mb.tnr, mb.mse)
    assert a.per_replication == b.per_replication


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(),
        ModelSpec(family="ans"),
        ModelSpec(family="kkp"),
        ModelSpec(effects="fixed", include_intercept=False),
    ],
    ids=["gspecm", "ans", "kkp", "fixed"],
)
def test_run_experiment_is_bitwise_a_loop_of_fit_model(monkeypatch, spec):
    # the staged run solves the moment systems of all replications in one
    # lockstep and boosts their folds in one lockstep batch; each fit must
    # keep the bits it has when fitted alone.  Only GSPECM leaves the
    # location-effect rho free, so only it sends that system to the lockstep
    cfg = small_cfg(n_replications=3)
    config = BoostConfig(m_stop=150)
    fits, batches, solves = [], [], []
    fit_all, lockstep = spboost.simulate._fit_all, spboost.crossval._lockstep_risks
    solve_free = spboost.pipeline._solve_free

    def keep_fits(*args):
        fits.extend(fit_all(*args))
        return list(fits)

    def keep_batch(folds, *args):
        batches.append(len(folds))
        return lockstep(folds, *args)

    def keep_solve(systems):
        solves.append([s.target for s in systems])
        return solve_free(systems)

    monkeypatch.setattr(spboost.simulate, "_fit_all", keep_fits)
    monkeypatch.setattr(spboost.crossval, "_lockstep_risks", keep_batch)
    monkeypatch.setattr(spboost.pipeline, "_solve_free", keep_solve)
    methods = ("fgls", "ltb", "des")
    result = run_experiment(cfg, methods=methods, spec=spec, boost_config=config, n_folds=2)
    assert batches == [3 * 2]
    assert len(fits) == 3
    free = ["idiosyncratic", "location_effect"] if spec == ModelSpec() else ["idiosyncratic"]
    assert solves == [free * 3]

    geometry = cfg.geometry()
    alone = []
    for r, staged in enumerate(fits):
        data, weights = generate_panel(cfg, r, geometry=geometry)
        fr = fit_model(
            data, weights, spec, config=config, n_folds=2, seed=cfg.fold_seed(r),
            deselect_threshold=0.01, baseline=True,
        )
        assert repr(staged.components) == repr(fr.components), r
        assert np.array_equal(staged.cv_curve, fr.cv_curve), r
        assert staged.m_opt == fr.m_opt
        for method in methods:
            assert np.array_equal(staged.coefficients(method), fr.coefficients(method))
        alone.append(fr)
    truth = cfg.true_coefficients
    rows = []
    for method in methods:
        scores = []
        for r, fr in enumerate(alone):
            coefs = fr.coefficients(method)
            tpr, tnr = evaluate_selection(coefs, fr.names, truth)
            se = evaluate_mse(coefs, fr.names, truth)
            scores.append((tpr, tnr, se))
            rows.append(
                {"replication": r, "method": method, "tpr": tpr, "tnr": tnr, "squared_error": se}
            )
        means = tuple(float(v) for v in np.asarray(scores).mean(axis=0))
        m = result.per_method[method]
        assert (m.tpr, m.tnr, m.mse) == means
    assert list(result.per_replication) == rows


def test_metrics_stay_in_valid_ranges():
    cfg = small_cfg(n_replications=2)
    result = run_experiment(
        cfg,
        methods=("ltb", "des"),
        boost_config=BoostConfig(m_stop=150),
        n_folds=2,
    )
    assert result.n_replications == 2
    for method in ("ltb", "des"):
        metrics = result.per_method[method]
        assert metrics.available
        assert 0.0 <= metrics.tpr <= 1.0
        assert 0.0 <= metrics.tnr <= 1.0
        assert np.isfinite(metrics.mse) and metrics.mse >= 0.0
    assert len(result.per_replication) == 2 * 2


def test_fgls_marked_unavailable_in_high_dimensions():
    cfg = small_cfg(n_locations=10, n_periods=2, n_candidates=24)
    result = run_experiment(
        cfg,
        methods=("fgls", "ltb"),
        boost_config=BoostConfig(m_stop=100),
        n_folds=2,
    )
    fgls = result.per_method["fgls"]
    assert not fgls.available
    assert fgls.unavailable_reason
    assert result.per_method["ltb"].available


def test_run_experiment_rejects_unknown_method():
    with pytest.raises(ValidationError):
        run_experiment(small_cfg(), methods=("ltb", "ridge"))


@pytest.mark.parametrize("methods", [(), ("ltb", "ltb"), ("fgls", "ltb", "fgls")])
def test_run_experiment_rejects_empty_or_repeated_methods(methods):
    with pytest.raises(ValidationError, match="non-empty and distinct"):
        run_experiment(small_cfg(), methods=methods)


@pytest.mark.parametrize(
    "n_candidates, truth",
    [
        (4, dict(DEFAULT_TRUE_COEFFICIENTS)),  # no noise column: TNR undefined
        (6, {INTERCEPT_NAME: 1.0, "x1": 0.0}),  # no informative column: TPR undefined
    ],
)
def test_run_experiment_refuses_undefined_selection_rates(monkeypatch, n_candidates, truth):
    def no_work(*args, **kwargs):
        raise AssertionError("the configuration must be refused before any panel or fit")

    monkeypatch.setattr(spboost.simulate, "generate_panel", no_work)
    monkeypatch.setattr(spboost.simulate, "_fit_all", no_work)
    cfg = small_cfg(n_candidates=n_candidates, true_coefficients=truth)
    with pytest.raises(ValidationError, match=f"n_candidates={n_candidates}"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "workers, n_replications, n_cpus, expected",
    [
        (1, 20, 2, 1),  # one worker: the in-process run
        (8, 3, 16, 3),  # more workers than replications
        (8, 20, 2, 2),  # more workers than processors
        (2, 20, 2, 2),
    ],
)
def test_worker_count(workers, n_replications, n_cpus, expected):
    assert spboost.simulate._worker_count(workers, n_replications, n_cpus) == expected


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_refuses_fewer_than_one_worker(monkeypatch, workers):
    def no_work(*args, **kwargs):
        raise AssertionError("the worker count must be refused before any fit")

    monkeypatch.setattr(spboost.simulate, "_fit_all", no_work)
    with pytest.raises(ValidationError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(small_cfg(), workers=workers)
