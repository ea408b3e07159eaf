"""Moment systems for the error-process parameters and their solver."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from spboost.errors import EstimationFailureError, ValidationError
from spboost.gmm import (
    MULTI_STARTS,
    RHO_BOUND,
    MomentSystem,
    ResidualTriple,
    VarianceComponents,
    _solve_free,
    estimate_variance_components,
    idiosyncratic_moment_system,
    initial_residuals,
    location_effect_moment_system,
    solve_moment_system,
)
from spboost.linalg import ProjectorKind, TimeProjector
from spboost.panel import Effects, Family, ModelSpec, augment_design, spatial_lag
from spboost.simulate import DgpConfig, generate_panel
from spboost.weights import SpatialWeights

from conftest import (
    dense_between_contrast,
    dense_lag,
    dense_within,
    make_panel,
    make_weights,
)


def make_triple(v, weights, t):
    lag1 = spatial_lag(v, weights, t)
    return ResidualTriple(v, lag1, spatial_lag(lag1, weights, t))


def dense_moment_oracle(v, weights, t, projector, scale):
    """Recompute every system entry with dense matrices."""
    wbar = dense_lag(weights, t)
    v1 = wbar @ v
    v2 = wbar @ v1
    p = projector
    tr = float(np.trace(weights.matrix.T @ weights.matrix)) / weights.n_locations
    matrix = np.array(
        [
            [2 * scale * (v1 @ p @ v), -scale * (v1 @ p @ v1), 1.0],
            [2 * scale * (v2 @ p @ v1), -scale * (v2 @ p @ v2), tr],
            [scale * (v2 @ p @ v + v1 @ p @ v1), -scale * (v2 @ p @ v1), 0.0],
        ]
    )
    vector = np.array(
        [scale * (v @ p @ v), scale * (v1 @ p @ v1), scale * (v1 @ p @ v)]
    )
    return matrix, vector


# ---------------------------------------------------------------------------
# Preliminary residuals


def test_noiseless_panel_gives_zero_residuals():
    data = make_panel(6, 3, 2, seed=1, noise=0.0)
    w, _ = make_weights(6, seed=1, k=2)
    design = augment_design(data, w, ModelSpec())
    triple = initial_residuals(data, design, w)
    assert np.max(np.abs(triple.residuals)) <= 1e-8
    assert np.max(np.abs(triple.double_lagged)) <= 1e-8


def test_residuals_match_hat_matrix_oracle():
    data = make_panel(3, 2, 1, seed=2)
    w, _ = make_weights(3, seed=2, k=1)
    design = augment_design(
        data, w, ModelSpec(include_intercept=False, include_spatial_lags=False)
    )
    triple = initial_residuals(data, design, w)
    z = design.columns
    hat = z @ np.linalg.solve(z.T @ z, z.T)
    oracle = data.response - hat @ data.response
    assert np.allclose(triple.residuals, oracle, atol=1e-10)


def test_double_lag_matches_dense_kronecker(rng):
    n, t = 5, 3
    w, _ = make_weights(n, seed=3, k=2)
    v = rng.normal(size=n * t)
    triple = make_triple(v, w, t)
    wbar = dense_lag(w, t)
    assert np.allclose(triple.lagged, wbar @ v, atol=1e-12)
    assert np.allclose(triple.double_lagged, wbar @ wbar @ v, atol=1e-12)


def test_rank_deficient_design_falls_back_to_boosting():
    rng = np.random.default_rng(4)
    n, t = 8, 3
    x = rng.normal(size=(n * t, 2))
    x[:, 1] = 2.0 * x[:, 0]
    data = dataclasses.replace
    from spboost.panel import PanelDataset

    data = PanelDataset(
        response=x[:, 0] + rng.normal(size=n * t),
        regressors=x,
        regressor_names=("x1", "x2"),
        location_ids=tuple(str(i) for i in range(n)),
        period_ids=tuple(str(s) for s in range(t)),
    )
    w, _ = make_weights(n, seed=4, k=2)
    design = augment_design(
        data, w, ModelSpec(include_intercept=False, include_spatial_lags=False)
    )
    with pytest.warns(UserWarning, match="rank deficient"):
        triple = initial_residuals(data, design, w)
    assert np.all(np.isfinite(triple.residuals))


def test_high_dimensional_design_uses_boosted_residuals():
    data = make_panel(10, 2, 8, seed=5)
    w, _ = make_weights(10, seed=5, k=3)
    design = augment_design(data, w, ModelSpec())  # 17 columns vs 20 rows
    triple = initial_residuals(data, design, w)
    assert triple.residuals.shape == (20,)
    assert np.all(np.isfinite(triple.residuals))
    # least squares would fit 20 rows with 17 columns nearly perfectly;
    # early-stopped boosting leaves visible residual variation
    assert np.linalg.norm(triple.residuals) > 1e-6


# ---------------------------------------------------------------------------
# Moment system construction


def test_zero_residuals_give_zero_moment_data():
    w, _ = make_weights(4, seed=6, k=2)
    triple = make_triple(np.zeros(8), w, 2)
    system = idiosyncratic_moment_system(triple, w, 2)
    assert np.all(system.vector == 0.0)
    assert np.all(system.matrix[:, :2] == 0.0)
    assert system.matrix[0, 2] == 1.0


def test_idiosyncratic_system_matches_dense_oracle(rng):
    n, t = 3, 2
    w, _ = make_weights(n, seed=7, k=1)
    v = rng.normal(size=n * t)
    triple = make_triple(v, w, t)
    system = idiosyncratic_moment_system(triple, w, t)
    oracle_m, oracle_v = dense_moment_oracle(
        v, w, t, dense_within(n, t), 1.0 / (n * (t - 1))
    )
    assert np.allclose(system.matrix, oracle_m, atol=1e-10)
    assert np.allclose(system.vector, oracle_v, atol=1e-10)


def test_location_effect_system_matches_dense_oracle(rng):
    n, t = 3, 3
    w, _ = make_weights(n, seed=8, k=1)
    v = rng.normal(size=n * t)
    triple = make_triple(v, w, t)
    system = location_effect_moment_system(triple, w, t)
    oracle_m, oracle_v = dense_moment_oracle(
        v, w, t, dense_between_contrast(n, t), 1.0 / (n * t)
    )
    assert np.allclose(system.matrix, oracle_m, atol=1e-10)
    assert np.allclose(system.vector, oracle_v, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_moment_entries_match_dense_oracle_many_sizes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    t = int(rng.integers(2, 5))
    w, _ = make_weights(n, seed=seed, k=min(2, n - 1))
    v = rng.normal(size=n * t)
    triple = make_triple(v, w, t)
    for builder, projector, scale in (
        (idiosyncratic_moment_system, dense_within(n, t), 1.0 / (n * (t - 1))),
        (location_effect_moment_system, dense_between_contrast(n, t), 1.0 / (n * t)),
    ):
        system = builder(triple, w, t)
        oracle_m, oracle_v = dense_moment_oracle(v, w, t, projector, scale)
        assert np.allclose(system.matrix, oracle_m, atol=1e-10)
        assert np.allclose(system.vector, oracle_v, atol=1e-10)


def test_structural_column_of_both_systems(rng):
    n, t = 5, 3
    w, _ = make_weights(n, seed=9, k=2)
    triple = make_triple(rng.normal(size=n * t), w, t)
    expected_trace = float(np.trace(w.matrix.T @ w.matrix)) / n
    for builder in (idiosyncratic_moment_system, location_effect_moment_system):
        system = builder(triple, w, t)
        assert system.matrix[0, 2] == 1.0
        assert system.matrix[1, 2] == pytest.approx(expected_trace, abs=1e-14)
        assert system.matrix[2, 2] == 0.0
        assert system.trace_ratio == pytest.approx(expected_trace, abs=1e-14)


def test_second_moment_system_allocates_no_dense_block(rng):
    # tr(W'W) / n is computed once per weights object, not once per system
    n, t = 1000, 2
    w, _ = make_weights(n, seed=3, k=5)
    triple = make_triple(rng.normal(size=n * t), w, t)
    first = idiosyncratic_moment_system(triple, w, t)
    tracemalloc.start()
    try:
        second = location_effect_moment_system(triple, w, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert first.trace_ratio == float((w.matrix * w.matrix).sum()) / n
    assert second.trace_ratio == first.trace_ratio


def test_within_quadratic_form_is_nonnegative(rng):
    n, t = 6, 4
    proj = TimeProjector(ProjectorKind.WITHIN, n, t)
    for _ in range(20):
        v = rng.normal(size=n * t)
        assert v @ proj.apply(v) >= -1e-12


def test_between_contrast_fixes_time_constant_vectors():
    n, t = 4, 3
    proj = TimeProjector(ProjectorKind.BETWEEN_CONTRAST, n, t)
    v = np.tile(np.arange(1.0, n + 1), t)
    assert np.allclose(proj.apply(v), v, atol=1e-13)


def test_moment_systems_need_two_periods():
    w, _ = make_weights(3, seed=0, k=1)
    triple = make_triple(np.zeros(3), w, 1)
    with pytest.raises(ValidationError, match="idiosyncratic moments need at least two"):
        idiosyncratic_moment_system(triple, w, 1)
    with pytest.raises(ValidationError, match="location-effect moments need at least two"):
        location_effect_moment_system(triple, w, 1)
    # residuals for two periods of three locations, declared as three periods
    short = make_triple(np.zeros(6), w, 2)
    for builder in (idiosyncratic_moment_system, location_effect_moment_system):
        with pytest.raises(ValidationError, match="residual length does not match"):
            builder(short, w, 3)


def test_moment_system_validates_structural_column():
    bad = np.zeros((3, 3))
    with pytest.raises(ValidationError):
        MomentSystem(matrix=bad, vector=np.zeros(3), target="idiosyncratic")


# ---------------------------------------------------------------------------
# Solver


def seeded_system(seed=10, n=6, t=3):
    rng = np.random.default_rng(seed)
    w, _ = make_weights(n, seed=seed, k=2)
    triple = make_triple(rng.normal(size=n * t), w, t)
    return idiosyncratic_moment_system(triple, w, t)


def exact_system(base, rho, sigma2):
    target = base.matrix @ np.array([rho, rho * rho, sigma2])
    return dataclasses.replace(base, vector=target)


def test_solver_recovers_exact_pair():
    base = seeded_system()
    solution = solve_moment_system(exact_system(base, 0.5, 2.0))
    assert abs(solution.rho - 0.5) <= 1e-6
    assert abs(solution.sigma2 - 2.0) <= 1e-6
    assert solution.residual_norm <= 1e-6
    assert solution.residual_norm == np.sqrt(solution.objective)


@pytest.mark.parametrize("rho", [-0.8, -0.4, 0.0, 0.4, 0.8])
@pytest.mark.parametrize("sigma2", [0.5, 1.0, 10.0])
def test_solver_recovers_exact_grid(rho, sigma2):
    base = seeded_system(seed=11)
    solution = solve_moment_system(exact_system(base, rho, sigma2))
    assert abs(solution.rho - rho) <= 1e-6
    assert abs(solution.sigma2 - sigma2) <= 1e-6


def test_solution_beats_every_start():
    system = seeded_system(seed=12)
    solution = solve_moment_system(system)
    for rho0 in MULTI_STARTS:
        sigma0 = max(
            float(
                system.vector[0]
                - system.matrix[0, 0] * rho0
                - system.matrix[0, 1] * rho0**2
            ),
            0.0,
        )
        start_obj = float(system.residual(rho0, sigma0) @ system.residual(rho0, sigma0))
        assert solution.objective <= start_obj + 1e-12


def test_clamped_minimum_does_not_stall():
    # Systems observed in a high-dimensional Monte Carlo run where every
    # damped Newton start creeps toward the constrained minimum on the
    # sigma^2 = 0 edge without passing the stationarity test.  The profiled
    # fallback must hand back the global minimum instead of failing.
    observed = [
        (
            np.array(
                [
                    [0.04382375, 0.05706498, 1.0],
                    [-0.07208058, 0.0376368, 0.1],
                    [-0.11057278, 0.03604029, 0.0],
                ]
            ),
            np.array([-0.35063913, -0.05706498, 0.02191188]),
        ),
        (
            np.array(
                [
                    [-0.02773221, 0.03320223, 1.0],
                    [-0.03865717, 0.01662249, 0.1],
                    [-0.06467485, 0.01932859, 0.0],
                ]
            ),
            np.array([-0.37373909, -0.03320223, -0.01386611]),
        ),
    ]
    for matrix, vector in observed:
        system = MomentSystem(matrix=matrix, vector=vector, target="location_effect")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solution = solve_moment_system(system)
        assert solution.sigma2 == 0.0
        assert solution.sigma_clamped  # the unclamped closed form is negative
        # nothing on a fine grid of feasible points does better
        for rho in np.linspace(-0.999, 0.999, 1999):
            for sigma2 in (0.0, solution.sigma2, 0.05, 0.5):
                f = system.residual(rho, sigma2)
                assert solution.objective <= float(f @ f) + 1e-9


def test_boundary_minimum_is_flagged():
    base = seeded_system(seed=13)
    solution = solve_moment_system(exact_system(base, RHO_BOUND, 1.0))
    assert solution.rho_at_boundary
    assert abs(abs(solution.rho) - RHO_BOUND) <= 1e-6


@pytest.mark.parametrize("kind", ["random", "exact", "clamped", "boundary"])
def test_no_dense_scan_point_beats_the_solver(kind):
    # Oracle: a 20,001-point rho scan, each point with its clamped
    # closed-form sigma^2, finds no objective lower than the solver's by
    # more than 1e-12 relative to the larger of the solver's objective and
    # the objective at the origin, ||vector||^2 (exact systems reach zero).
    grid = np.linspace(-RHO_BOUND, RHO_BOUND, 20001)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 1)
        trace_ratio = rng.uniform(0.05, 1.0)
        matrix = rng.normal(size=(3, 3)) * scale
        matrix[:, 2] = (1.0, trace_ratio, 0.0)
        if kind == "boundary":
            rho = rng.choice([-1.0, 1.0]) * rng.choice([RHO_BOUND, 1.2])
        else:
            rho = rng.uniform(-0.95, 0.95)
        sigma2 = rng.uniform(0.1, 5.0) * scale * (-1.0 if kind == "clamped" else 1.0)
        vector = matrix @ np.array([rho, rho * rho, sigma2])
        if kind == "random":
            vector = rng.normal(size=3) * scale
        system = MomentSystem(matrix=matrix, vector=vector, target="idiosyncratic")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solution = solve_moment_system(system)
        c = matrix[:, 2]
        rhs = vector[:, None] - np.outer(matrix[:, 0], grid) - np.outer(matrix[:, 1], grid**2)
        resid = np.outer(c, np.maximum(c @ rhs / (c @ c), 0.0)) - rhs
        scan = np.einsum("ij,ij->j", resid, resid)
        scale_obj = max(solution.objective, float(vector @ vector))
        assert scan.min() >= solution.objective - 1e-12 * scale_obj, (kind, seed)


def test_fixed_rho_uses_closed_form():
    system = seeded_system(seed=14)
    rho = 0.3
    solution = solve_moment_system(system, fixed_rho=rho)
    assert solution.rho == rho
    c = system.matrix[:, 2]
    rhs = system.vector - system.matrix[:, 0] * rho - system.matrix[:, 1] * rho**2
    expected = max(float((c @ rhs) / (c @ c)), 0.0)
    assert solution.sigma2 == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValidationError):
        solve_moment_system(system, fixed_rho=1.0)


def test_degenerate_zero_system_warns():
    w, _ = make_weights(4, seed=15, k=2)
    triple = make_triple(np.zeros(8), w, 2)
    system = idiosyncratic_moment_system(triple, w, 2)
    with pytest.warns(UserWarning, match="identically zero"):
        solution = solve_moment_system(system)
    assert solution.rho == 0.0 and solution.sigma2 == 0.0
    assert solution.degenerate


@pytest.mark.parametrize("fixed_rho", [2.0, -1.0, float("nan"), float("inf")])
def test_fixed_rho_is_checked_before_the_degenerate_return(fixed_rho):
    # the |rho| < 1 check holds for an all-zero system too, before its warning
    w, _ = make_weights(4, seed=15, k=2)
    system = idiosyncratic_moment_system(make_triple(np.zeros(8), w, 2), w, 2)
    assert system.degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="fixed rho must satisfy"):
            solve_moment_system(system, fixed_rho=fixed_rho)
    with pytest.warns(UserWarning, match="identically zero"):
        solution = solve_moment_system(system, fixed_rho=0.5)
    assert (solution.rho, solution.sigma2, solution.degenerate) == (0.5, 0.0, True)


@pytest.mark.parametrize("field", ["matrix", "vector"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_moment_system_refuses_non_finite_entries(field, value):
    # an infinite sample moment would solve to sigma2=inf, objective=nan
    base = seeded_system(seed=14)
    entries = getattr(base, field).copy()
    entries[0] = value  # the first row of the matrix, or the first moment
    with pytest.raises(ValidationError, match="non-finite"):
        dataclasses.replace(base, **{field: entries})


def overflowing_system():
    """Finite entries whose residual overflows at every start."""
    matrix = np.array([[1e200, 1e200, 1.0], [1e200, -1e200, 0.5], [-1e200, 1e200, 0.0]])
    vector = np.array([1e200, -1e200, 1e200])
    return MomentSystem(matrix=matrix, vector=vector, target="idiosyncratic")


def test_no_finite_start_is_refused_alone_and_among_others():
    bad = overflowing_system()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        with pytest.raises(EstimationFailureError) as alone:
            solve_moment_system(bad)
        with pytest.raises(EstimationFailureError) as among:
            _solve_free([seeded_system(seed=12), bad, seeded_system(seed=13)])
    message = "no start produced a finite objective for the idiosyncratic moments"
    assert str(alone.value).startswith(message)
    assert (type(among.value), str(among.value)) == (type(alone.value), str(alone.value))
    assert alone.value.candidate is None and np.isnan(alone.value.residual_norm)


# ---------------------------------------------------------------------------
# Component estimation and family restrictions


def test_ans_family_pins_location_autocorrelation_at_zero():
    data = make_panel(12, 3, 2, seed=16)
    w, _ = make_weights(12, seed=16, k=3)
    design = augment_design(data, w, ModelSpec(family=Family.ANS))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        comp = estimate_variance_components(
            data, design, w, ModelSpec(family=Family.ANS)
        )
    assert comp.rho1 == 0.0
    assert comp.family is Family.ANS


def test_kkp_family_ties_the_two_autocorrelations():
    data = make_panel(12, 3, 2, seed=17)
    w, _ = make_weights(12, seed=17, k=3)
    design = augment_design(data, w, ModelSpec(family=Family.KKP))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        comp = estimate_variance_components(
            data, design, w, ModelSpec(family=Family.KKP)
        )
    assert comp.rho1 == comp.rho2
    assert np.float64(comp.rho1).tobytes() == np.float64(comp.rho2).tobytes()


def test_fixed_effects_skip_location_component():
    data = make_panel(12, 3, 2, seed=18)
    w, _ = make_weights(12, seed=18, k=3)
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    design = augment_design(data, w, spec)
    comp = estimate_variance_components(data, design, w, spec)
    assert comp.rho1 is None and comp.sigma_mu2 is None
    assert comp.sigma_eps2 > 0


def test_degenerate_zero_response_gets_unit_variance():
    from spboost.panel import PanelDataset

    base = make_panel(8, 3, 2, seed=19)
    data = PanelDataset(
        response=np.zeros(base.n_obs),
        regressors=base.regressors,
        regressor_names=base.regressor_names,
        location_ids=base.location_ids,
        period_ids=base.period_ids,
    )
    w, _ = make_weights(8, seed=19, k=2)
    design = augment_design(data, w, ModelSpec())
    with pytest.warns(UserWarning, match="numerically zero"):
        comp = estimate_variance_components(data, design, w, ModelSpec())
    assert comp.sigma_eps2 == 1.0
    assert comp.rho2 == 0.0


def test_component_estimation_validates_inputs():
    data = make_panel(6, 1, 2, seed=20)
    w, _ = make_weights(6, seed=20, k=2)
    design = augment_design(data, w, ModelSpec())
    with pytest.raises(ValidationError):
        estimate_variance_components(data, design, w, ModelSpec())
    data2 = make_panel(6, 3, 2, seed=20)
    w_bad, _ = make_weights(7, seed=20, k=2)
    design2 = augment_design(data2, w, ModelSpec())
    with pytest.raises(ValidationError):
        estimate_variance_components(data2, design2, w_bad, ModelSpec())


def test_variance_components_validation():
    with pytest.raises(ValidationError):
        VarianceComponents(rho2=1.5, sigma_eps2=1.0)
    with pytest.raises(ValidationError):
        VarianceComponents(rho2=0.0, sigma_eps2=-1.0)
    with pytest.raises(ValidationError):
        VarianceComponents(rho2=0.0, sigma_eps2=1.0, rho1=0.2, sigma_mu2=None)
    with pytest.raises(ValidationError):
        VarianceComponents(
            rho2=0.0, sigma_eps2=1.0, rho1=0.2, sigma_mu2=1.0, family=Family.ANS
        )
    with pytest.raises(ValidationError):
        VarianceComponents(
            rho2=0.3, sigma_eps2=1.0, rho1=0.2, sigma_mu2=1.0, family=Family.KKP
        )


def test_variance_components_store_python_floats():
    # integers and numpy scalars alike, so reports write 0.0 and not 0
    vc = VarianceComponents(rho2=0, sigma_eps2=np.float32(2), rho1=0, sigma_mu2=1, family="ans")
    assert [type(v) for v in (vc.rho2, vc.sigma_eps2, vc.rho1, vc.sigma_mu2)] == [float] * 4
    assert (vc.rho2, vc.sigma_eps2, vc.sigma_mu2) == (0.0, 2.0, 1.0)
    fixed = VarianceComponents(rho2=np.float64(0.5), sigma_eps2=3)
    assert type(fixed.rho2) is float and fixed.rho1 is None and fixed.sigma_mu2 is None


# ---------------------------------------------------------------------------
# Recovery on the simulated process (slower, 20 replications each)


def feasible_solutions(cfg):
    geometry = cfg.geometry()
    spec = ModelSpec()
    for r in range(cfg.n_replications):
        data, w = generate_panel(cfg, r, geometry=geometry)
        design = augment_design(data, w, spec)
        triple = initial_residuals(data, design, w)
        eps = solve_moment_system(idiosyncratic_moment_system(triple, w, cfg.n_periods))
        mu = solve_moment_system(
            location_effect_moment_system(triple, w, cfg.n_periods)
        )
        yield data, design, w, eps, mu


def test_idiosyncratic_recovery_on_simulated_process():
    cfg = DgpConfig(rho1=-0.4, rho2=0.4, n_replications=20)
    rho_err, var_err, sign_hits = [], [], 0
    for _, _, _, eps, _ in feasible_solutions(cfg):
        rho_err.append(abs(eps.rho - cfg.rho2))
        var_err.append(abs(eps.sigma2 - cfg.sigma_eps2) / cfg.sigma_eps2)
        sign_hits += eps.rho > 0
    assert np.mean(rho_err) <= 0.15
    assert np.mean(var_err) <= 0.20
    assert sign_hits >= 19


def test_iid_noise_gives_near_zero_autocorrelation():
    cfg = DgpConfig(rho1=0.0, rho2=0.0, n_replications=20)
    estimates = [eps.rho for _, _, _, eps, _ in feasible_solutions(cfg)]
    assert np.mean(np.abs(estimates)) <= 0.1


def test_location_autocorrelation_sign_from_exact_disturbances():
    # The location-effect parameter lives in an n-dimensional subspace that
    # preliminary least-squares residuals contaminate badly at this scale,
    # so the sign check uses the exact disturbances y - Z delta_true.
    cfg = DgpConfig(rho1=-0.4, rho2=0.4, n_replications=20)
    geometry = cfg.geometry()
    spec = ModelSpec()
    hits = 0
    for r in range(cfg.n_replications):
        data, w = generate_panel(cfg, r, geometry=geometry)
        design = augment_design(data, w, spec)
        index = {s: j for j, s in enumerate(design.names)}
        delta = np.zeros(design.n_columns)
        for name, coef in cfg.true_coefficients.items():
            delta[index[name]] = coef
        noise = data.response - design.columns @ delta
        triple = make_triple(noise, w, cfg.n_periods)
        mu = solve_moment_system(
            location_effect_moment_system(triple, w, cfg.n_periods)
        )
        hits += mu.rho < 0
    assert hits >= 18


def test_component_estimation_refuses_row_sums_above_one():
    # |rho| <= 0.999 is admissible only while no row of W sums past one
    data = make_panel(12, 3, 2, seed=21)
    w, _ = make_weights(12, seed=21, k=3)
    spec = ModelSpec(effects=Effects.FIXED, include_intercept=False)
    scale = np.where(np.arange(12) == 4, 1.5, 1.0)[:, None]
    for rows_scaled, admissible in ((scale, False), (1.0 + 1e-13, True), (0.5, True)):
        scaled = SpatialWeights(w.matrix * rows_scaled)
        design = augment_design(data, scaled, spec)
        if admissible:
            assert estimate_variance_components(data, design, scaled, spec).sigma_eps2 > 0
            continue
        with pytest.raises(ValidationError, match=r"row 4 \(location 'L4'\).*--row-normalize"):
            estimate_variance_components(data, design, scaled, spec)


def test_component_estimation_admits_columns_summing_to_at_most_one():
    # the transpose of row-normalized kNN weights: its rows sum past one,
    # but its columns sum to one, which bounds the spectral radius as well
    data = make_panel(12, 3, 2, seed=21)
    w, _ = make_weights(12, seed=21, k=3)
    transposed = SpatialWeights(w.matrix.T.copy())
    assert transposed.matrix.sum(axis=1).max() > 1.5
    assert transposed.matrix.sum(axis=0).max() <= 1.0 + 1e-12
    for spec in (ModelSpec(), ModelSpec(effects=Effects.FIXED, include_intercept=False)):
        design = augment_design(data, transposed, spec)
        assert estimate_variance_components(data, design, transposed, spec).sigma_eps2 > 0

