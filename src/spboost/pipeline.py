"""End-to-end estimation pipeline.

One pass through the estimator: build the candidate design, estimate the
error-process parameters from preliminary residuals, whiten the data once,
pick the boosting stopping iteration by cross-validation on that whitened
data, run the final boost, and optionally deselect and/or compute the
least-squares benchmark.  The variance parameters are estimated once on the
full sample and shared by every fold, which keeps the folds comparable and
the whole procedure deterministic given a seed.

``_fit_all`` runs that pass over a sequence of panels: ``fit_model`` gives
it one, ``simulate.run_experiment`` every replication, so that the moment
systems of all of them are solved together and their cross-validation
folds boosted together.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boosting import BoostConfig, BoostFit, DeselectionResult, boost, deselect, fgls_baseline
from .boosting import _check_threshold
from .crossval import (
    FoldKind,
    FoldPlan,
    _cv_curves,
    choose_stopping_iteration,
    make_spatial_folds,
    make_time_folds,
)
from .errors import RankError, ValidationError
from .gmm import VarianceComponents, _moment_systems, _solve_free, _variance_components
from .linalg import fixed_effects_whitener, random_effects_whitener
from .panel import AugmentedDesign, Effects, ModelSpec, PanelDataset, augment_design
from .transform import TransformedData, transform_fixed, transform_random
from .weights import SpatialWeights


def standardize_regressors(data: PanelDataset) -> PanelDataset:
    """Center and scale each raw regressor column to unit variance.

    Columns with zero variance are left untouched (with a warning) so a
    constant column is not silently destroyed.
    """
    x = data.regressors
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    flat = sd == 0.0
    if flat.any():
        bad = [data.regressor_names[i] for i in np.nonzero(flat)[0][:5]]
        warnings.warn(f"constant column(s) left unstandardized: {bad}")
    scaled = np.where(flat, x, (x - mean) / np.where(flat, 1.0, sd))
    return dataclasses.replace(data, regressors=scaled)


def build_fold_plan(
    data: PanelDataset, kind: FoldKind, n_folds: int, seed: int
) -> FoldPlan:
    if kind is FoldKind.TIME:
        return make_time_folds(data.n_locations, data.n_periods)
    if data.centroids is None:
        raise ValidationError(
            "spatial cross-validation needs location centroids; supply them or "
            "switch to leave-time-out folds"
        )
    return make_spatial_folds(data.centroids, n_folds, data.n_periods, seed)


def whiten(
    data: PanelDataset,
    design: AugmentedDesign,
    weights: SpatialWeights,
    spec: ModelSpec,
    components: VarianceComponents,
) -> TransformedData:
    """Apply the transform matching the effects mode."""
    if spec.effects is Effects.FIXED:
        op = fixed_effects_whitener(components, weights, data.n_periods)
        return transform_fixed(data, design, op)
    op = random_effects_whitener(components, weights, data.n_periods)
    return transform_random(data, design, op)


def _prepare_all(panels: Iterable, spec: ModelSpec, config: BoostConfig) -> list:
    """``(plan, components, transformed)`` of each ``(data, weights, plan)``,
    ``plan`` being the fold plan for boosted preliminary residuals or a
    zero-argument callable that builds it only when they are boosted.  In
    stages across the panels: the design, preliminary residuals and moment
    systems of each as it is drawn; one ``gmm._solve_free`` call over the
    free systems of all; then the variance components and whitening of each."""
    staged = []
    for data, weights, plan in panels:
        design = augment_design(data, weights, spec)
        systems = _moment_systems(data, design, weights, spec, config=config, cv_plan=plan)
        staged.append((data, weights, plan, design, *systems))
    solutions = iter(_solve_free([s for *_, free, _ in staged for s in free]))
    prepared = []
    for k, (data, weights, plan, design, free, pinned) in enumerate(staged):
        staged[k] = None  # so that each design goes once its panel is whitened
        components = _variance_components(spec, pinned, [next(solutions) for _ in free])
        prepared.append((plan, components, whiten(data, design, weights, spec, components)))
    return prepared


@dataclass(frozen=True)
class FitResult:
    """Everything a fit produces, ready for reporting."""

    spec: ModelSpec
    components: VarianceComponents
    transformed: TransformedData
    fold_plan: FoldPlan
    cv_curve: np.ndarray
    m_opt: int
    fit: BoostFit
    deselection: DeselectionResult | None
    baseline: np.ndarray | None
    baseline_unavailable_reason: str | None
    names: tuple[str, ...]

    def coefficients(self, method: str) -> np.ndarray:
        """Coefficient vector for 'ltb', 'des', or 'fgls'."""
        if method == "ltb":
            return self.fit.coefficients
        if method == "des":
            if self.deselection is None:
                raise ValidationError("deselection was not run")
            if self.deselection.refit is None:
                return np.zeros(len(self.names))
            return self.deselection.refit.coefficients
        if method == "fgls":
            if self.baseline_unavailable_reason is not None:
                raise RankError(self.baseline_unavailable_reason)
            if self.baseline is None:
                raise ValidationError("baseline was not run")
            return self.baseline
        raise ValidationError(f"unknown method {method!r}")


def _coefficient_table(result: FitResult) -> dict[str, np.ndarray]:
    """Coefficient vector of each method the fit ran, in the order ltb, des,
    fgls: the methods that the reports and the simulation scores cover."""
    ran = {"ltb": True, "des": result.deselection is not None, "fgls": result.baseline is not None}
    return {m: result.coefficients(m) for m, did in ran.items() if did}


def _fit_all(
    panels: Iterable[tuple[PanelDataset, SpatialWeights, int]],
    spec: ModelSpec,
    config: BoostConfig,
    cv_kind: FoldKind,
    n_folds: int,
    deselect_threshold: float | None,
    baseline: bool,
) -> list[FitResult]:
    """``fit_model`` on each ``(data, weights, seed)`` panel, in order.

    The fit runs in stages, each over every panel before the next begins:
    (1) the fold plan, design, preliminary residuals and moment systems of
    each panel; (2) one lockstep solve of the moment systems with a free
    rho, of all panels; (3) the variance components and whitening of each;
    (4) the cross-validation folds of all panels, boosted together in
    lockstep batches where they are small; (5) each final boost,
    deselection and benchmark.  Each fit has the bits it has alone.
    Warnings come in that stage order, and in panel order within a stage,
    with the text and count of a loop of ``fit_model``; an error is raised
    where its stage reaches it, so the earlier stages of later panels have
    run.  The deselection threshold is checked before ``panels`` is
    iterated.
    """
    if deselect_threshold is not None:
        _check_threshold(deselect_threshold)
    planned = (
        (data, weights, build_fold_plan(data, cv_kind, n_folds, seed))
        for data, weights, seed in panels
    )
    prepared = _prepare_all(planned, spec, config)
    curves = _cv_curves([(td.response, td.design, plan) for plan, _, td in prepared], config)
    results = []
    for (plan, components, td), curve in zip(prepared, curves):
        m_opt = choose_stopping_iteration(curve)
        fit = boost(td, config, n_iterations=m_opt)
        des = None
        if deselect_threshold is not None:
            des = deselect(td, config, fit, threshold=deselect_threshold)
        fgls = unavailable = None
        if baseline:
            try:
                fgls = fgls_baseline(td)
            except RankError as exc:
                unavailable = str(exc)
        results.append(
            FitResult(
                spec=spec,
                components=components,
                transformed=td,
                fold_plan=plan,
                cv_curve=curve,
                m_opt=m_opt,
                fit=fit,
                deselection=des,
                baseline=fgls,
                baseline_unavailable_reason=unavailable,
                names=td.names,
            )
        )
    return results


def fit_model(
    data: PanelDataset,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig = BoostConfig(),
    cv_kind: FoldKind = FoldKind.SPATIAL,
    n_folds: int = 5,
    seed: int = 0,
    deselect_threshold: float | None = 0.01,
    baseline: bool = False,
) -> FitResult:
    """Full estimation pass over one panel.

    ``deselect_threshold=None`` skips deselection.  ``baseline=True`` adds
    the least-squares benchmark when the design permits it; an
    under-determined design marks it unavailable instead of failing the run.
    """
    return _fit_all(
        [(data, weights, seed)], spec, config, cv_kind, n_folds, deselect_threshold, baseline
    )[0]
