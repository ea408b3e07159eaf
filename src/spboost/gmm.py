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
dense scan of the objective profiled down to rho.  Each (system, start)
pair is one lane of a lockstep iteration, with the bits it has alone, so a
solution does not depend on what else is solved with it.  The solution
carries its objective and its clamp, boundary and degenerate flags; there
is no convergence flag, since the result is the lowest objective found.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boosting import BoostConfig, _direct_coefficients
from .crossval import FoldPlan, boost_cv_curve, choose_stopping_iteration, make_time_folds
from .errors import EstimationFailureError, ValidationError
from .linalg import ProjectorKind, TimeProjector
from .panel import (
    AugmentedDesign, Effects, Family, ModelSpec, PanelDataset, _check_weight_size, spatial_lag
)
from .weights import SpatialWeights, _read_only

RHO_BOUND = 0.999
GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 200
MULTI_STARTS = (-0.8, -0.4, 0.0, 0.4, 0.8)
# preliminary residuals switch from least squares to boosting at this ratio
OLS_DIMENSION_RATIO = 0.8


@dataclass(frozen=True)
class ResidualTriple:
    """Preliminary residuals with their first and second spatial lags,
    stored as C-ordered, read-only copies of the caller's vectors."""

    residuals: np.ndarray
    lagged: np.ndarray
    double_lagged: np.ndarray

    def __post_init__(self):
        for field_name in ("residuals", "lagged", "double_lagged"):
            v = _read_only(getattr(self, field_name))
            if v.ndim != 1 or v.shape != self.residuals.shape:
                raise ValidationError("residual vectors must share one shape")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"{field_name} contains non-finite entries")
            object.__setattr__(self, field_name, v)


@dataclass(frozen=True)
class MomentSystem:
    """Three moment conditions, linear in (rho, rho^2, sigma^2).

    The third column of ``matrix`` is structural: (1, trace_ratio, 0) with
    ``trace_ratio = tr(W'W) / n``, which is read back from it.  Both arrays
    are C-ordered, read-only copies, so the checks made here, ``degenerate``
    and ``trace_ratio`` hold whatever the caller does to its arrays later.
    """

    matrix: np.ndarray
    vector: np.ndarray
    target: str  # 'idiosyncratic' or 'location_effect'

    def __post_init__(self):
        m = _read_only(self.matrix)
        v = _read_only(self.vector)
        if m.shape != (3, 3) or v.shape != (3,):
            raise ValidationError("moment system must be 3x3 with a 3-vector")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise ValidationError("moment system contains non-finite entries")
        if m[0, 2] != 1.0 or m[2, 2] != 0.0:
            raise ValidationError("structural variance column of the moment matrix is wrong")
        if self.target not in ("idiosyncratic", "location_effect"):
            raise ValidationError(f"unknown moment target {self.target!r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "vector", v)

    @property
    def trace_ratio(self) -> float:
        return float(self.matrix[1, 2])

    @property
    def degenerate(self) -> bool:
        """Every data-dependent entry is zero, so the system carries no information."""
        return bool(np.all(self.matrix[:, :2] == 0.0) and np.all(self.vector == 0.0))

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
        for name in ("rho2", "sigma_eps2", "rho1", "sigma_mu2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
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
    matrix = np.array(
        [
            [2 * scale * (v1 @ pv), -scale * (v1 @ pv1), 1.0],
            [2 * scale * (v2 @ pv1), -scale * (v2 @ pv2), weights.trace_ratio],
            [scale * (v2 @ pv + v1 @ pv1), -scale * (v2 @ pv1), 0.0],
        ]
    )
    vector = np.array([scale * (v @ pv), scale * (v1 @ pv1), scale * (v1 @ pv)])
    return MomentSystem(matrix=matrix, vector=vector, target=target)


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


# Lanes.  Lane i of the helpers below is one (system, point) pair: mats[i]
# and vecs[i] are its system's matrix and vector.  Each lane gets the
# operations a lone system gets (``MomentSystem.residual``, a 1-D ``@``)
# through stacked calls that run the same BLAS or LAPACK routine on each
# lane, so every lane has the bits it has alone; a lone system is one lane.
# Python's ``max(x, c)`` is ``np.where(c > x, c, x)``, which keeps -0.0 and nan.


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` of each row of two (L, n) arrays."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _lanes(systems: Sequence[MomentSystem]):
    """One lane per system: (mats, vecs, cc), with ``cc`` as ``_closed_form`` takes it."""
    mats = np.stack([s.matrix for s in systems])
    vecs = np.stack([s.vector for s in systems])
    return mats, vecs, _dots(mats[:, :, 2], mats[:, :, 2])


def _residuals(mats, vecs, rho, sigma2) -> np.ndarray:
    """``MomentSystem.residual(rho[i], sigma2[i])`` of each lane, as (L, 3)."""
    x = np.empty((rho.size, 3, 1))
    x[:, 0, 0], x[:, 1, 0], x[:, 2, 0] = rho, rho * rho, sigma2
    return (mats @ x)[:, :, 0] - vecs


def _closed_form(mats, vecs, cc, rho) -> np.ndarray:
    """The solver's one closed form: the least-squares sigma^2 of each lane at
    ``rho[i]``, before the sigma^2 >= 0 clamp; ``cc`` is ``_dots(c, c)`` of
    the sigma^2 column ``c = mats[:, :, 2]``."""
    rhs = vecs - mats[:, :, 0] * rho[:, None] - mats[:, :, 1] * rho[:, None] * rho[:, None]
    return _dots(rhs, mats[:, :, 2]) / cc


def _profiled(mats, vecs, cc, rho) -> tuple[np.ndarray, np.ndarray]:
    """(sigma^2, objective) of each lane at ``rho[i]``, sigma^2 the
    non-negative closed form."""
    sigma2 = _closed_form(mats, vecs, cc, rho)
    sigma2 = np.where(0.0 > sigma2, 0.0, sigma2)
    f = _residuals(mats, vecs, rho, sigma2)
    return sigma2, _dots(f, f)


def _jacobians(mats, rho) -> np.ndarray:
    """d residual / d (rho, sigma^2) of each lane, as (L, 3, 2)."""
    jac = np.empty((rho.size, 3, 2))
    jac[:, :, 0] = mats[:, :, 0] + (2 * rho)[:, None] * mats[:, :, 1]
    jac[:, :, 1] = mats[:, :, 2]
    return jac


def _descend(mats, vecs, rho, sigma2):
    """Damped Gauss-Newton with box projection, one lane per start, in lockstep.

    Lane i starts at (rho[i], sigma2[i]), inside [-RHO_BOUND, RHO_BOUND] x
    [0, inf).  It stops at a stationary point of the projected gradient,
    when no damped step lowers its objective, or after MAX_ITERATIONS; each
    pass makes one trial step of every lane still running, and drops the
    lanes that stopped.  Returns (rho, sigma2, objective), the objective
    inf where it is not finite at the start.
    """
    rho, sigma2 = rho.copy(), sigma2.copy()
    f = _residuals(mats, vecs, rho, sigma2)
    obj = _dots(f, f)
    out = np.full(obj.shape, np.inf)
    lane = np.flatnonzero(np.isfinite(obj))
    m, v, r, s, f, obj = mats[lane], vecs[lane], rho[lane], sigma2[lane], f[lane], obj[lane]
    g0 = ((2 * _jacobians(m, r).transpose(0, 2, 1)) @ f[:, :, None])[:, :, 0]
    scale = np.sqrt(_dots(g0, g0))
    scale = np.where(scale > 1.0, scale, 1.0)
    lam = np.full(lane.size, 1e-3)
    its = np.zeros(lane.size, dtype=int)
    fresh = np.ones(lane.size, dtype=bool)  # about to begin an iteration
    while lane.size:
        jac = _jacobians(m, r)
        jtf = (jac.transpose(0, 2, 1) @ f[:, :, None])[:, :, 0]
        # the gradient, without the components that push out of the box
        pg = 2.0 * jtf
        outward = ((r <= -RHO_BOUND) & (pg[:, 0] > 0)) | ((r >= RHO_BOUND) & (pg[:, 0] < 0))
        pg[:, 0] = np.where(outward, 0.0, pg[:, 0])
        pg[:, 1] = np.where((s <= 0.0) & (pg[:, 1] > 0), 0.0, pg[:, 1])
        stationary = np.sqrt(_dots(pg, pg)) < GRADIENT_TOL * scale
        stop = (fresh & ((its == MAX_ITERATIONS) | stationary)) | (lam > 1e12)
        its += fresh
        if stop.any():
            rho[lane[stop]], sigma2[lane[stop]], out[lane[stop]] = r[stop], s[stop], obj[stop]
            go = ~stop
            lane, m, v, r, s, f, obj, scale, lam, its, jac, jtf = (
                x[go] for x in (lane, m, v, r, s, f, obj, scale, lam, its, jac, jtf)
            )
            if not lane.size:
                break
        # jac.T @ jac on one buffer, so that numpy takes its syrk path
        jtj = jac.transpose(0, 2, 1) @ jac
        damping = np.zeros(jtj.shape)
        damping[:, 0, 0] = np.maximum(jtj[:, 0, 0], 1e-12)
        damping[:, 1, 1] = np.maximum(jtj[:, 1, 1], 1e-12)
        a = jtj + lam[:, None, None] * damping
        try:
            step = np.linalg.solve(a, -jtf[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # a singular lane keeps a nan step, so its trial fails and lam grows
            step = np.full(jtf.shape, np.nan)
            for i in range(lane.size):
                try:
                    step[i] = np.linalg.solve(a[i], -jtf[i])
                except np.linalg.LinAlgError:
                    pass
        rc = np.clip(r + step[:, 0], -RHO_BOUND, RHO_BOUND)
        sc = s + step[:, 1]
        sc = np.where(0.0 > sc, 0.0, sc)
        fc = _residuals(m, v, rc, sc)
        oc = _dots(fc, fc)
        fresh = np.isfinite(oc) & (oc < obj)
        r, s, obj = np.where(fresh, rc, r), np.where(fresh, sc, s), np.where(fresh, oc, obj)
        f = np.where(fresh[:, None], fc, f)
        shrunk = lam * 0.3
        lam = np.where(fresh, np.where(1e-12 > shrunk, 1e-12, shrunk), lam * 10.0)
    # Polish.  Iterates can creep toward a box edge in ever-shrinking
    # accepted steps and run out the iteration budget just short of it.
    # Refresh sigma^2 with its closed form (the problem is linear in sigma^2
    # at fixed rho) and try the exact edge when rho stalled next to one.
    lane = np.flatnonzero(np.isfinite(out))
    m, v, r, s, obj = mats[lane], vecs[lane], rho[lane], sigma2[lane], out[lane]
    cc = _dots(m[:, :, 2], m[:, :, 2])
    near_edge = RHO_BOUND - np.abs(r) < 1e-6
    for cand, allowed in ((r, True), (np.where(r > 0, RHO_BOUND, -RHO_BOUND), near_edge)):
        sc, oc = _profiled(m, v, cc, cand)
        take = allowed & np.isfinite(oc) & (oc <= obj)
        r, s, obj = np.where(take, cand, r), np.where(take, sc, s), np.where(take, oc, obj)
    rho[lane], sigma2[lane], out[lane] = r, s, obj
    return rho, sigma2, out


def _profiled_minima(systems: Sequence[MomentSystem]):
    """Global minimum of each system's objective profiled down to rho alone.

    At fixed rho the best sigma^2 is the non-negative closed form, so the
    objective reduces to a piecewise-quartic function of rho on the box.
    A dense scan of each system locates its basin and golden-section
    refinement, one lane per system, pins the minimizer, with the box edges
    checked explicitly.  This cannot stall the way a damped Newton
    iteration can, so it guards the multi-start solver against a poor basin
    or a run stalled against a clamp.  Returns (rho, sigma2, objective).
    """
    mats, vecs, cc = _lanes(systems)
    rhos = np.linspace(-RHO_BOUND, RHO_BOUND, 4001)
    scan = []
    for m, v, c in zip(mats, vecs, cc):
        # one lane over the grid; only the argmin of its gemm objective is used
        lanes = np.broadcast_to(m, (rhos.size, 3, 3)), np.broadcast_to(v, (rhos.size, 3))
        sigmas = np.maximum(_closed_form(*lanes, c, rhos), 0.0)
        resid = m @ np.vstack([rhos, rhos * rhos, sigmas]) - v[:, None]
        scan.append(int(np.argmin(np.einsum("ij,ij->j", resid, resid))))
    i = np.array(scan)
    a = rhos[np.maximum(i - 1, 0)]
    b = rhos[np.minimum(i + 1, rhos.size - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    g1, g2 = _profiled(mats, vecs, cc, x1)[1], _profiled(mats, vecs, cc, x2)[1]
    for _ in range(60):
        # where g1 <= g2 the bracket keeps its left part and x1 becomes x2
        left = g1 <= g2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x_kept, g_kept = np.where(left, x1, x2), np.where(left, g1, g2)
        d = invphi * (b - a)
        x_new = np.where(left, b - d, a + d)
        g_new = _profiled(mats, vecs, cc, x_new)[1]
        x1, g1 = np.where(left, x_new, x_kept), np.where(left, g_new, g_kept)
        x2, g2 = np.where(left, x_kept, x_new), np.where(left, g_kept, g_new)
    rho, best = np.where(g1 <= g2, x1, x2), np.where(g1 <= g2, g1, g2)
    for cand in (rhos[i], np.full(i.size, -RHO_BOUND), np.full(i.size, RHO_BOUND)):
        oc = _profiled(mats, vecs, cc, cand)[1]
        rho, best = np.where(oc < best, cand, rho), np.where(oc < best, oc, best)
    return rho, _profiled(mats, vecs, cc, rho)[0], best


def _degenerate_solution(system: MomentSystem, rho: float) -> MomentSolution:
    """The solution of a system with no information, with its warning."""
    warnings.warn(
        f"the {system.target} moment system is identically zero; "
        "returning zero autocorrelation and zero variance"
    )
    return MomentSolution(
        rho=rho,
        sigma2=0.0,
        objective=0.0,
        rho_at_boundary=False,
        sigma_clamped=False,
        degenerate=True,
    )


def _solution(system: MomentSystem, rho, sigma2, objective, rho_at_boundary) -> MomentSolution:
    """The solution of a non-degenerate system at the point the solver chose.

    A zero sigma^2 is a clamp, flagged and warned about, when ``_closed_form``
    at ``rho`` on the system's own lane is negative.
    """
    raw = float(_closed_form(*_lanes([system]), np.array([rho]))[0]) if sigma2 == 0.0 else 0.0
    if raw < 0.0:
        warnings.warn(
            f"negative variance estimate {raw:.6g} clamped to zero ({system.target} moments)"
        )
    return MomentSolution(
        rho=float(rho),
        sigma2=float(sigma2),
        objective=float(objective),
        rho_at_boundary=bool(rho_at_boundary),
        sigma_clamped=raw < 0.0,
    )


def _solve_free(systems: Sequence[MomentSystem]) -> list[MomentSolution]:
    """``solve_moment_system`` of each system, rho free, in one lockstep.

    Every (system, start) pair is one lane of ``_descend`` and every system
    one lane of ``_profiled_minima``; a lane has the bits it has alone, so
    each solution is the one its system gets alone.  Warnings and the
    refusal of a system without a finite start come in system order, as
    from a loop over the systems.
    """
    live = [system for system in systems if not system.degenerate]
    picks, profiled = [], iter(())
    if live:
        n_starts = len(MULTI_STARTS)
        mats, vecs = (np.repeat(x, n_starts, axis=0) for x in _lanes(live)[:2])
        rho0 = np.tile(MULTI_STARTS, len(live))
        squares = np.tile([r**2 for r in MULTI_STARTS], len(live))
        # the first moment row has unit coefficient on sigma^2
        sigma0 = vecs[:, 0] - mats[:, 0, 0] * rho0 - mats[:, 0, 1] * squares
        sigma0 = np.where(0.0 > sigma0, 0.0, sigma0)
        rho, sigma2, obj = (x.reshape(-1, n_starts) for x in _descend(mats, vecs, rho0, sigma0))
        # the lowest finite objective, ties to the earlier start
        picks = [
            (rho[k, j], sigma2[k, j], obj[k, j]) if np.isfinite(obj[k, j]) else None
            for k, j in enumerate(np.argmin(obj, axis=1))
        ]
        found = [s for s, pick in zip(live, picks) if pick is not None]
        if found:
            profiled = zip(*_profiled_minima(found))
    picks = iter(picks)
    solutions = []
    for system in systems:
        if system.degenerate:
            solutions.append(_degenerate_solution(system, 0.0))
            continue
        pick = next(picks)
        if pick is None:
            raise EstimationFailureError(
                f"no start produced a finite objective for the {system.target} moments",
                candidate=None,
                residual_norm=float("nan"),
            )
        rho, sigma2, obj = pick
        rho_prof, sigma_prof, obj_prof = next(profiled)
        if obj_prof < obj:
            rho, sigma2, obj = rho_prof, sigma_prof, obj_prof
        solutions.append(_solution(system, rho, sigma2, obj, abs(rho) >= RHO_BOUND - 1e-12))
    return solutions


def solve_moment_system(system: MomentSystem, fixed_rho: float | None = None) -> MomentSolution:
    """Solve three moment conditions for (rho, sigma^2).

    With ``fixed_rho`` the problem is linear in sigma^2: the point and its
    objective are ``_profiled`` at ``fixed_rho`` on the system's one lane,
    the free solver's own arithmetic, never flagged as on the boundary.
    Otherwise a damped Gauss-Newton runs from five rho starts and keeps the
    lowest finite objective (ties to the earlier start); the profiled scan
    of ``_profiled_minima`` replaces it when strictly lower.  This is
    ``_solve_free`` of the one system, whose lanes have the same bits in
    any call.  Either way ``_solution`` builds the result, flagging and
    warning about a clamped sigma^2.  No convergence flag is reported: the
    result is the best point found, with its objective.  A system whose
    data-dependent entries are all zero carries no information and returns
    (0, 0), or (fixed_rho, 0), with a warning.
    """
    if fixed_rho is None:
        return _solve_free([system])[0]
    if not np.isfinite(fixed_rho) or abs(fixed_rho) >= 1:
        raise ValidationError(f"fixed rho must satisfy |rho| < 1, got {fixed_rho}")
    if system.degenerate:
        return _degenerate_solution(system, float(fixed_rho))
    sigma2, obj = _profiled(*_lanes([system]), np.array([fixed_rho]))
    return _solution(system, fixed_rho, sigma2[0], obj[0], False)


def _moment_systems(
    data: PanelDataset,
    design: AugmentedDesign,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig | None = None,
    cv_plan: FoldPlan | Callable[[], FoldPlan] | None = None,
) -> tuple[tuple[MomentSystem, ...], MomentSystem | None]:
    """The first half of ``estimate_variance_components``: its refusals,
    the preliminary residuals and the moment systems, as (the systems
    whose rho is free, the location-effect system whose rho ANS or KKP
    pins, or None)."""
    if data.n_periods < 2:
        raise ValidationError(
            "variance decomposition needs at least two periods (degenerate panel)"
        )
    _check_weight_size(data, weights)
    row, row_sum, col, col_sum = weights._largest_sums
    if min(row_sum, col_sum) > 1.0 + 1e-12:
        ids = data.location_ids
        raise ValidationError(
            f"weight row {row} (location {ids[row]!r}) sums to {float(row_sum)!r} "
            f"and column {col} (location {ids[col]!r}) to {float(col_sum)!r}, both "
            f"> 1, so |rho| <= {RHO_BOUND} is not an admissible range; row-normalize the "
            "weights (--row-normalize)"
        )

    triple = initial_residuals(data, design, weights, config=config, cv_plan=cv_plan)
    eps_system = idiosyncratic_moment_system(triple, weights, data.n_periods)
    if spec.effects is Effects.FIXED:
        return (eps_system,), None
    mu_system = location_effect_moment_system(triple, weights, data.n_periods)
    if spec.family is Family.GSPECM:
        return (eps_system, mu_system), None
    return (eps_system,), mu_system


def _variance_components(
    spec: ModelSpec, pinned: MomentSystem | None, free: Sequence[MomentSolution]
) -> VarianceComponents:
    """The second half of ``estimate_variance_components``: the components
    from the solutions of the free systems and the ``pinned`` system."""
    eps_sol = free[0]
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

    mu_sol = free[1] if pinned is None else solve_moment_system(
        pinned, fixed_rho=0.0 if spec.family is Family.ANS else eps_sol.rho
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


def estimate_variance_components(
    data: PanelDataset,
    design: AugmentedDesign,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig | None = None,
    cv_plan: FoldPlan | Callable[[], FoldPlan] | None = None,
) -> VarianceComponents:
    """Estimate the error-process parameters for a model specification.

    Builds preliminary residuals, solves the idiosyncratic moment system,
    and (under random effects) the location-effect system with the family's
    restriction applied: ANS pins the location-effect autocorrelation at
    zero, KKP copies the idiosyncratic estimate, GSPECM leaves it free.
    The systems with a free rho are solved first, together, then the
    variance checks and the fixed-rho solve run.
    ``config`` and ``cv_plan`` go to ``initial_residuals``: the fold plan,
    or a zero-argument callable that builds it, is used only when the
    preliminary residuals are boosted.
    Weights whose largest row sum and largest column sum both exceed one
    are refused with ``ValidationError``: the solver's range |rho| <= 0.999
    is admissible only for a spectral radius of W at most 1, which each of
    those two sums bounds (Kelejian & Prucha 2010).  On admitted weights,
    every filter I - rho W with |rho| <= 0.999 therefore passes
    ``SpatialFilter``'s rows-or-columns rule, by a margin of about 1e-3.
    """
    free, pinned = _moment_systems(data, design, weights, spec, config=config, cv_plan=cv_plan)
    return _variance_components(spec, pinned, _solve_free(free))
