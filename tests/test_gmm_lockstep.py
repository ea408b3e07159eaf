"""The lockstep moment solver against a copy of the per-system solver.

``_solve_free`` runs every (system, start) pair as one lane of a lockstep
Gauss-Newton and every system's golden-section refinement as one lane.
The reference below is the solver it replaced, copied unchanged: one
system at a time, each start in turn.  Every solution must be
``repr``-equal to the reference's, with the same warnings, whether a
system is solved alone, with all the others, or with them in another
order.
"""

import random
import warnings
import zlib

import numpy as np
import pytest

from spboost.errors import EstimationFailureError, ValidationError
from spboost.gmm import (
    GRADIENT_TOL,
    MAX_ITERATIONS,
    MULTI_STARTS,
    RHO_BOUND,
    MomentSolution,
    MomentSystem,
    _solve_free,
    solve_moment_system,
)

# ---------------------------------------------------------------------------
# The per-system solver, as it was before the lockstep


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


def reference_solve(system: MomentSystem, fixed_rho: float | None = None) -> MomentSolution:
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


# ---------------------------------------------------------------------------
# Systems


def seeded_systems(kind, seeds):
    """The systems of ``test_gmm.test_no_dense_scan_point_beats_the_solver``."""
    systems = []
    for seed in seeds:
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
        systems.append(MomentSystem(matrix=matrix, vector=vector, target="idiosyncratic"))
    return systems


# the two systems of test_gmm.test_clamped_minimum_does_not_stall
STALLING = [
    MomentSystem(
        matrix=np.array(
            [
                [0.04382375, 0.05706498, 1.0],
                [-0.07208058, 0.0376368, 0.1],
                [-0.11057278, 0.03604029, 0.0],
            ]
        ),
        vector=np.array([-0.35063913, -0.05706498, 0.02191188]),
        target="location_effect",
    ),
    MomentSystem(
        matrix=np.array(
            [
                [-0.02773221, 0.03320223, 1.0],
                [-0.03865717, 0.01662249, 0.1],
                [-0.06467485, 0.01932859, 0.0],
            ]
        ),
        vector=np.array([-0.37373909, -0.03320223, -0.01386611]),
        target="location_effect",
    ),
]


def recorded(solve):
    """``solve()`` and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve()
    return result, [str(w.message) for w in caught]


def assert_lockstep_matches_reference(systems):
    reference = [recorded(lambda s=s: reference_solve(s)) for s in systems]
    for system, (expected, messages) in zip(systems, reference):
        solution, alone = recorded(lambda: solve_moment_system(system))
        assert (repr(solution), alone) == (repr(expected), messages)
    solutions, together = recorded(lambda: _solve_free(systems))
    assert [repr(s) for s in solutions] == [repr(e) for e, _ in reference]
    assert together == [m for _, messages in reference for m in messages]
    order = list(range(len(systems)))
    random.Random(len(systems)).shuffle(order)
    solutions, shuffled = recorded(lambda: _solve_free([systems[i] for i in order]))
    assert [repr(s) for s in solutions] == [repr(reference[i][0]) for i in order]
    assert shuffled == [m for i in order for m in reference[i][1]]


@pytest.mark.parametrize("kind", ["random", "exact", "clamped", "boundary"])
def test_lockstep_is_bitwise_the_per_system_solver(kind):
    # 250 seeded systems of each kind, so 1,000 in all
    assert_lockstep_matches_reference(seeded_systems(kind, range(250)))


def test_lockstep_keeps_the_stalling_systems_and_their_clamp_warnings():
    systems = STALLING + seeded_systems("clamped", range(3)) + STALLING[::-1]
    reference = [recorded(lambda s=s: reference_solve(s)) for s in systems]
    assert all(messages for _, messages in reference[:2])  # both clamp
    assert_lockstep_matches_reference(systems)


def test_degenerate_systems_keep_their_place():
    zero = MomentSystem(
        matrix=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]),
        vector=np.zeros(3),
        target="location_effect",
    )
    assert_lockstep_matches_reference([STALLING[0], zero, STALLING[1], zero])
    assert _solve_free([]) == []


def test_singular_lanes_fall_back_to_their_own_solves(monkeypatch):
    # Mark a quarter of all damped 2x2 matrices singular, by a hash of their
    # bytes.  The reference then retries those steps with a larger damping;
    # a lockstep whose stacked solve meets one solves each lane alone, and
    # its singular lanes must retry just as the reference does.
    solve, stacked = np.linalg.solve, []

    def solve_unless_marked(a, b):
        if any(zlib.crc32(m.tobytes()) % 4 == 0 for m in np.reshape(a, (-1, 2, 2))):
            if np.ndim(a) == 3:
                stacked.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_unless_marked)
    assert_lockstep_matches_reference(seeded_systems("random", range(20)) + STALLING)
    assert stacked
