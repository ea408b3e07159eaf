"""Method-of-moments estimation of the error process parameters.

The error of the panel model has two parts, a time-constant location effect
and an idiosyncratic innovation, each following its own spatial
autoregression.  Quadratic forms of preliminary residuals in the WITHIN
projector identify the idiosyncratic pair (autocorrelation, variance)
because the location effect is constant over time and drops out; quadratic
forms in the BETWEEN_CONTRAST projector identify the location-effect pair
because the idiosyncratic contribution cancels in expectation.

Each set of three moment conditions is arranged as a 3x3 coefficient matrix
``G`` against the unknowns (rho, rho^2, sigma^2) and a 3-vector of sample
moments, and solved as a small nonlinear least-squares problem in
(rho, sigma^2): a damped Gauss-Newton from several rho starts, guarded by a
dense scan of the objective profiled down to rho.  The solution carries its
objective and its clamp, boundary and degenerate flags; there is no
convergence flag, since the result is the lowest objective found.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boosting import BoostConfig, _direct_coefficients
from .crossval import FoldPlan, boost_cv_curve, choose_stopping_iteration, make_time_folds
from .errors import EstimationFailureError, ValidationError
from .linalg import ProjectorKind, TimeProjector
from .panel import AugmentedDesign, Effects, Family, ModelSpec, PanelDataset, spatial_lag
from .weights import SpatialWeights

RHO_BOUND = 0.999
GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 200
MULTI_STARTS = (-0.8, -0.4, 0.0, 0.4, 0.8)
# preliminary residuals switch from least squares to boosting at this ratio
OLS_DIMENSION_RATIO = 0.8


@dataclass(frozen=True)
class ResidualTriple:
    """Preliminary residuals with their first and second spatial lags."""

    residuals: np.ndarray
    lagged: np.ndarray
    double_lagged: np.ndarray

    def __post_init__(self):
        for field_name in ("residuals", "lagged", "double_lagged"):
            v = np.asarray(getattr(self, field_name), dtype=float)
            if v.ndim != 1 or v.shape != self.residuals.shape:
                raise ValidationError("residual vectors must share one shape")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"{field_name} contains non-finite entries")
            object.__setattr__(self, field_name, v)


@dataclass(frozen=True)
class MomentSystem:
    """Three moment conditions, linear in (rho, rho^2, sigma^2).

    The third column of ``matrix`` is structural: (1, trace_ratio, 0) with
    ``trace_ratio = tr(W'W) / n``.
    """

    matrix: np.ndarray
    vector: np.ndarray
    target: str  # 'idiosyncratic' or 'location_effect'
    trace_ratio: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        v = np.asarray(self.vector, dtype=float)
        if m.shape != (3, 3) or v.shape != (3,):
            raise ValidationError("moment system must be 3x3 with a 3-vector")
        if m[0, 2] != 1.0 or m[1, 2] != self.trace_ratio or m[2, 2] != 0.0:
            raise ValidationError("structural variance column of the moment matrix is wrong")
        if self.target not in ("idiosyncratic", "location_effect"):
            raise ValidationError(f"unknown moment target {self.target!r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "vector", v)

    def residual(self, rho: float, sigma2: float) -> np.ndarray:
        return self.matrix @ np.array([rho, rho * rho, sigma2]) - self.vector


@dataclass(frozen=True)
class MomentSolution:
    rho: float
    sigma2: float
    objective: float
    rho_at_boundary: bool
    sigma_clamped: bool
    degenerate: bool = False

    @property
    def residual_norm(self) -> float:
        return float(np.sqrt(self.objective))


@dataclass(frozen=True)
class VarianceComponents:
    """Estimated error-process parameters.

    Under fixed effects the location-effect fields are None because the
    within transform removes that component before estimation.
    """

    rho2: float
    sigma_eps2: float
    rho1: float | None = None
    sigma_mu2: float | None = None
    family: Family = Family.GSPECM
    rho1_at_boundary: bool = False
    rho2_at_boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not np.isfinite(self.rho2) or abs(self.rho2) >= 1:
            raise ValidationError(f"rho2 must satisfy |rho| < 1, got {self.rho2}")
        if not (np.isfinite(self.sigma_eps2) and self.sigma_eps2 > 0):
            raise ValidationError(
                f"idiosyncratic variance must be positive, got {self.sigma_eps2}"
            )
        if (self.rho1 is None) != (self.sigma_mu2 is None):
            raise ValidationError("rho1 and sigma_mu2 must be set together")
        if self.rho1 is not None:
            if not np.isfinite(self.rho1) or abs(self.rho1) >= 1:
                raise ValidationError(f"rho1 must satisfy |rho| < 1, got {self.rho1}")
            if not (np.isfinite(self.sigma_mu2) and self.sigma_mu2 >= 0):
                raise ValidationError(
                    f"location-effect variance must be non-negative, got {self.sigma_mu2}"
                )
            if self.family is Family.ANS and self.rho1 != 0.0:
                raise ValidationError("the ANS family pins rho1 at zero")
            if self.family is Family.KKP and self.rho1 != self.rho2:
                raise ValidationError("the KKP family requires rho1 == rho2")


def initial_residuals(
    data: PanelDataset,
    design: AugmentedDesign,
    weights: SpatialWeights,
    config: BoostConfig | None = None,
    cv_plan: FoldPlan | Callable[[], FoldPlan] | None = None,
) -> ResidualTriple:
    """Preliminary residuals for the moment conditions, with spatial lags.

    Uses plain least squares while the column count stays below 0.8 of the
    observation count; otherwise (or when the design is rank deficient)
    falls back to componentwise boosting with cross-validated early
    stopping on the untransformed data.  Consistency, not efficiency, is
    all the moment conditions need from this step.  ``cv_plan`` may be a
    zero-argument callable, called only on the boosted route; without a
    plan, boosting uses leave-time-out folds.
    """
    y = data.response
    z = design.columns
    n_obs, k = z.shape
    if n_obs != data.n_obs:
        raise ValidationError("design rows do not match the panel")

    use_boosting = k >= OLS_DIMENSION_RATIO * n_obs
    if not use_boosting:
        coef, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
        if rank < k:
            warnings.warn(
                f"design is rank deficient ({rank} < {k}); using boosted "
                "preliminary residuals instead of least squares"
            )
            use_boosting = True
        else:
            resid = y - z @ coef
    if use_boosting:
        cfg = config or BoostConfig()
        plan = cv_plan() if callable(cv_plan) else cv_plan
        plan = plan or make_time_folds(data.n_locations, data.n_periods)
        curve = boost_cv_curve(y, z, plan, cfg)
        m_opt = choose_stopping_iteration(curve)
        coef = _direct_coefficients(y, z, cfg.learning_rate, m_opt)
        resid = y - z @ coef

    lag1 = spatial_lag(resid, weights, data.n_periods)
    lag2 = spatial_lag(lag1, weights, data.n_periods)
    return ResidualTriple(residuals=resid, lagged=lag1, double_lagged=lag2)


def _moment_system(
    triple: ResidualTriple,
    weights: SpatialWeights,
    n_periods: int,
    kind: ProjectorKind,
    target: str,
) -> MomentSystem:
    """Three moment conditions from quadratic forms in one time projector.

    WITHIN forms are averaged over n*(T-1) observations, BETWEEN_CONTRAST
    forms over n*T.
    """
    if n_periods < 2:
        raise ValidationError(f"{target.replace('_', '-')} moments need at least two periods")
    n = weights.n_locations
    if triple.residuals.shape[0] != n * n_periods:
        raise ValidationError("residual length does not match n_locations * n_periods")
    projector = TimeProjector(kind, n, n_periods)
    scale = 1.0 / (n * (n_periods - 1 if kind is ProjectorKind.WITHIN else n_periods))
    v = triple.residuals
    v1 = triple.lagged
    v2 = triple.double_lagged
    pv = projector.apply(v)
    pv1 = projector.apply(v1)
    pv2 = projector.apply(v2)
    trace_ratio = weights.trace_ratio
    matrix = np.array(
        [
            [2 * scale * (v1 @ pv), -scale * (v1 @ pv1), 1.0],
            [2 * scale * (v2 @ pv1), -scale * (v2 @ pv2), trace_ratio],
            [scale * (v2 @ pv + v1 @ pv1), -scale * (v2 @ pv1), 0.0],
        ]
    )
    vector = np.array([scale * (v @ pv), scale * (v1 @ pv1), scale * (v1 @ pv)])
    return MomentSystem(matrix=matrix, vector=vector, target=target, trace_ratio=trace_ratio)


def idiosyncratic_moment_system(
    triple: ResidualTriple, weights: SpatialWeights, n_periods: int
) -> MomentSystem:
    """Moment conditions identifying the idiosyncratic (rho, sigma^2).

    Built from quadratic forms in the WITHIN projector, which removes the
    time-constant location effect from every residual.
    """
    return _moment_system(triple, weights, n_periods, ProjectorKind.WITHIN, "idiosyncratic")


def location_effect_moment_system(
    triple: ResidualTriple, weights: SpatialWeights, n_periods: int
) -> MomentSystem:
    """Moment conditions identifying the location-effect (rho, sigma^2).

    Built from quadratic forms in the BETWEEN_CONTRAST projector, under
    which the idiosyncratic contribution has expectation zero while the
    time-constant location effect passes through unchanged.
    """
    return _moment_system(
        triple, weights, n_periods, ProjectorKind.BETWEEN_CONTRAST, "location_effect"
    )


def _closed_form_sigma(system: MomentSystem, rho):
    """Least-squares sigma^2 at fixed rho, before the sigma^2 >= 0 clamp.

    ``rho`` is a float, or an (N, 1) column for N values at once.
    """
    c = system.matrix[:, 2]
    rhs = system.vector - system.matrix[:, 0] * rho - system.matrix[:, 1] * rho * rho
    return (rhs @ c) / (c @ c)


def _profile_sigma(system: MomentSystem, rho: float) -> float:
    """Non-negative closed-form sigma^2 minimizing the residual at this rho."""
    return max(float(_closed_form_sigma(system, rho)), 0.0)


def _profiled_global_minimum(system: MomentSystem) -> tuple[float, float, float]:
    """Global minimum of the objective profiled down to rho alone.

    At fixed rho the best sigma^2 is the non-negative closed form, so the
    objective reduces to a piecewise-quartic function of rho on the box.
    A dense scan locates its basin and golden-section refinement pins the
    minimizer, with the box edges checked explicitly.  This cannot stall
    the way a damped Newton iteration can, so it guards the multi-start
    solver against a poor basin or a run stalled against a clamp.
    """
    rhos = np.linspace(-RHO_BOUND, RHO_BOUND, 4001)
    sigmas = np.maximum(_closed_form_sigma(system, rhos[:, None]), 0.0)
    resid = system.matrix @ np.vstack([rhos, rhos * rhos, sigmas]) - system.vector[:, None]
    i = int(np.argmin(np.einsum("ij,ij->j", resid, resid)))

    def g(rho):
        f = system.residual(rho, _profile_sigma(system, rho))
        return float(f @ f)

    a = float(rhos[max(i - 1, 0)])
    b = float(rhos[min(i + 1, rhos.size - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    g1, g2 = g(x1), g(x2)
    for _ in range(60):
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - invphi * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + invphi * (b - a)
            g2 = g(x2)
    rho, best = (x1, g1) if g1 <= g2 else (x2, g2)
    for cand in (float(rhos[i]), -RHO_BOUND, RHO_BOUND):
        oc = g(cand)
        if oc < best:
            rho, best = cand, oc
    return float(rho), _profile_sigma(system, rho), best


def _solve_sigma_given_rho(system: MomentSystem, rho: float) -> tuple[float, bool]:
    """Closed-form sigma^2 with rho held fixed, clamped at zero with a warning."""
    sigma2 = float(_closed_form_sigma(system, rho))
    clamped = sigma2 < 0.0
    if clamped:
        warnings.warn(
            f"negative variance estimate {sigma2:.6g} clamped to zero "
            f"({system.target} moments)"
        )
        sigma2 = 0.0
    return sigma2, clamped


def _gauss_newton(system: MomentSystem, rho0: float, sigma0: float):
    """Damped Gauss-Newton from one start, with box projection.

    rho is kept in [-RHO_BOUND, RHO_BOUND] and sigma^2 non-negative.  The
    iteration stops at a stationary point of the projected gradient, when
    no damped step lowers the objective, or after MAX_ITERATIONS.
    Returns (params, objective).
    """
    matrix = system.matrix

    def resid(p):
        return system.residual(p[0], p[1])

    p = np.array([float(np.clip(rho0, -RHO_BOUND, RHO_BOUND)), max(sigma0, 0.0)])
    f = resid(p)
    obj = float(f @ f)
    if not np.isfinite(obj):
        return p, np.inf
    jac0 = np.column_stack([matrix[:, 0] + 2 * p[0] * matrix[:, 1], matrix[:, 2]])
    scale = max(1.0, float(np.linalg.norm(2 * jac0.T @ f)))
    lam = 1e-3
    for _ in range(MAX_ITERATIONS):
        jac = np.column_stack([matrix[:, 0] + 2 * p[0] * matrix[:, 1], matrix[:, 2]])
        # the gradient, without the components that push out of the box
        pg = 2.0 * (jac.T @ f)
        if (p[0] <= -RHO_BOUND and pg[0] > 0) or (p[0] >= RHO_BOUND and pg[0] < 0):
            pg[0] = 0.0
        if p[1] <= 0.0 and pg[1] > 0:
            pg[1] = 0.0
        if np.linalg.norm(pg) < GRADIENT_TOL * scale:
            break
        jtj = jac.T @ jac
        damping_base = np.diag(np.maximum(np.diag(jtj), 1e-12))
        improved = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(jtj + lam * damping_base, -(jac.T @ f))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = np.array(
                [float(np.clip(p[0] + step[0], -RHO_BOUND, RHO_BOUND)), max(p[1] + step[1], 0.0)]
            )
            fc = resid(cand)
            oc = float(fc @ fc)
            if np.isfinite(oc) and oc < obj:
                p, f, obj = cand, fc, oc
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved:
            break
    # Polish.  Iterates can creep toward a box edge in ever-shrinking
    # accepted steps and run out the iteration budget just short of it.
    # Refresh sigma^2 with its closed form (the problem is linear in sigma^2
    # at fixed rho) and try the exact edge when rho stalled next to one.
    candidates = [np.array([p[0], _profile_sigma(system, p[0])])]
    if RHO_BOUND - abs(p[0]) < 1e-6:
        edge = RHO_BOUND if p[0] > 0 else -RHO_BOUND
        candidates.append(np.array([edge, _profile_sigma(system, edge)]))
    for cand in candidates:
        fc = resid(cand)
        oc = float(fc @ fc)
        if np.isfinite(oc) and oc <= obj:
            p, obj = cand, oc
    return p, obj


def solve_moment_system(system: MomentSystem, fixed_rho: float | None = None) -> MomentSolution:
    """Solve three moment conditions for (rho, sigma^2).

    With ``fixed_rho`` the problem is linear in sigma^2 and solved in closed
    form.  Otherwise a damped Gauss-Newton runs from five rho starts and
    keeps the lowest finite objective (ties to the earlier start); the
    profiled scan of ``_profiled_global_minimum`` replaces it when strictly
    lower.  No convergence flag is reported: the result is the best point
    found, with its objective.  A system whose data-dependent entries are
    all zero carries no information and returns (0, 0) with a warning.
    """
    informative = np.concatenate([system.matrix[:, 0], system.matrix[:, 1], system.vector])
    if np.all(informative == 0.0):
        warnings.warn(
            f"the {system.target} moment system is identically zero; "
            "returning zero autocorrelation and zero variance"
        )
        rho = 0.0 if fixed_rho is None else float(fixed_rho)
        return MomentSolution(
            rho=rho,
            sigma2=0.0,
            objective=0.0,
            rho_at_boundary=False,
            sigma_clamped=False,
            degenerate=True,
        )

    if fixed_rho is not None:
        if not np.isfinite(fixed_rho) or abs(fixed_rho) >= 1:
            raise ValidationError(f"fixed rho must satisfy |rho| < 1, got {fixed_rho}")
        sigma2, clamped = _solve_sigma_given_rho(system, fixed_rho)
        res = system.residual(fixed_rho, sigma2)
        return MomentSolution(
            rho=float(fixed_rho),
            sigma2=sigma2,
            objective=float(res @ res),
            rho_at_boundary=False,
            sigma_clamped=clamped,
        )

    best = None
    for rho0 in MULTI_STARTS:
        # the first moment row has unit coefficient on sigma^2
        sigma0 = max(
            float(system.vector[0] - system.matrix[0, 0] * rho0 - system.matrix[0, 1] * rho0**2),
            0.0,
        )
        p, obj = _gauss_newton(system, rho0, sigma0)
        if np.isfinite(obj) and (best is None or obj < best[1]):
            best = (p, obj)
    if best is None:
        raise EstimationFailureError(
            f"no start produced a finite objective for the {system.target} moments",
            candidate=None,
            residual_norm=float("nan"),
        )
    p, obj = best
    rho_prof, sigma_prof, obj_prof = _profiled_global_minimum(system)
    if obj_prof < obj:
        p, obj = np.array([rho_prof, sigma_prof]), obj_prof
    sigma_clamped = False
    sigma2 = float(p[1])
    if sigma2 == 0.0:
        # re-run the closed form to see whether zero is a clamp or a solution
        _, sigma_clamped = _solve_sigma_given_rho(system, float(p[0]))
    return MomentSolution(
        rho=float(p[0]),
        sigma2=sigma2,
        objective=obj,
        rho_at_boundary=bool(abs(p[0]) >= RHO_BOUND - 1e-12),
        sigma_clamped=sigma_clamped,
    )


def estimate_variance_components(
    data: PanelDataset,
    design: AugmentedDesign,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig | None = None,
    cv_plan: FoldPlan | None = None,
) -> VarianceComponents:
    """Estimate the error-process parameters for a model specification.

    Builds preliminary residuals, solves the idiosyncratic moment system,
    and (under random effects) the location-effect system with the family's
    restriction applied: ANS pins the location-effect autocorrelation at
    zero, KKP copies the idiosyncratic estimate, GSPECM leaves it free.
    Weights with a row summing to more than one are refused with
    ``ValidationError``: the solver's range |rho| <= 0.999 is admissible
    only for a spectral radius of W at most 1, which the largest row sum
    bounds.
    """
    if data.n_periods < 2:
        raise ValidationError(
            "variance decomposition needs at least two periods (degenerate panel)"
        )
    if weights.n_locations != data.n_locations:
        raise ValidationError("weight matrix does not match the panel")
    row_sums = weights.matrix.sum(axis=1)
    worst = int(np.argmax(row_sums))
    if row_sums[worst] > 1.0 + 1e-12:
        raise ValidationError(
            f"weight row {worst} (location {data.location_ids[worst]!r}) sums to "
            f"{float(row_sums[worst])!r} > 1, so |rho| <= {RHO_BOUND} is not an admissible "
            "range; row-normalize the weights (--row-normalize)"
        )

    triple = initial_residuals(data, design, weights, config=config, cv_plan=cv_plan)
    eps_system = idiosyncratic_moment_system(triple, weights, data.n_periods)
    eps_sol = solve_moment_system(eps_system)
    sigma_eps2 = eps_sol.sigma2
    if sigma_eps2 <= 0.0:
        if eps_sol.degenerate:
            warnings.warn(
                "residuals are numerically zero; idiosyncratic variance set to 1.0 "
                "(a pure scale, immaterial to selection and fitting)"
            )
            sigma_eps2 = 1.0
        else:
            raise EstimationFailureError(
                "estimated idiosyncratic variance is zero on non-degenerate data",
                candidate=(eps_sol.rho, eps_sol.sigma2),
                residual_norm=eps_sol.residual_norm,
            )

    if spec.effects is Effects.FIXED:
        return VarianceComponents(
            rho2=eps_sol.rho,
            sigma_eps2=sigma_eps2,
            family=spec.family,
            rho2_at_boundary=eps_sol.rho_at_boundary,
        )

    mu_sol = solve_moment_system(
        location_effect_moment_system(triple, weights, data.n_periods),
        fixed_rho={Family.ANS: 0.0, Family.KKP: eps_sol.rho}.get(spec.family),
    )
    return VarianceComponents(
        rho2=eps_sol.rho,
        sigma_eps2=sigma_eps2,
        rho1=mu_sol.rho,
        sigma_mu2=mu_sol.sigma2,
        family=spec.family,
        rho1_at_boundary=mu_sol.rho_at_boundary,
        rho2_at_boundary=eps_sol.rho_at_boundary,
    )
