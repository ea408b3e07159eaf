"""End-to-end estimation pipeline.

One pass through the estimator: build the candidate design, estimate the
error-process parameters from preliminary residuals, whiten the data once,
pick the boosting stopping iteration by cross-validation on that whitened
data, run the final boost, and optionally deselect and/or compute the
least-squares benchmark.  The variance parameters are estimated once on the
full sample and shared by every fold, which keeps the folds comparable and
the whole procedure deterministic given a seed.

A fit runs in three phases, ``_prepare_fit`` (fold plan, design, variance
components, whitening), ``_cross_validate`` (CV curve and stopping
iteration) and ``_finish_fit`` (final boost, deselection, benchmark).
``fit_model``, the ``cv`` subcommand and ``simulate.run_experiment`` share
them; the simulation prepares every replication first, so that the CV
phase boosts all their folds together.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boosting import BoostConfig, BoostFit, DeselectionResult, boost, deselect, fgls_baseline
from .crossval import (
    FoldKind,
    FoldPlan,
    _cv_curves,
    choose_stopping_iteration,
    make_spatial_folds,
    make_time_folds,
)
from .errors import RankError, ValidationError
from .gmm import VarianceComponents, estimate_variance_components
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


def prepare(
    data: PanelDataset,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig,
    plan: FoldPlan | Callable[[], FoldPlan],
) -> tuple[AugmentedDesign, VarianceComponents, TransformedData]:
    """The stages before boosting: design, variance components, whitening.

    The variance parameters are estimated once on the full sample from
    preliminary residuals and the data whitened once.  ``plan`` is the fold
    plan for boosted preliminary residuals, or a zero-argument callable
    that builds it only when they are boosted.
    """
    design = augment_design(data, weights, spec)
    components = estimate_variance_components(
        data, design, weights, spec, config=config, cv_plan=plan
    )
    return design, components, whiten(data, design, weights, spec, components)


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
            if self.baseline is None:
                raise RankError(
                    self.baseline_unavailable_reason or "baseline unavailable"
                )
            return self.baseline
        raise ValidationError(f"unknown method {method!r}")


@dataclass(frozen=True)
class _Prepared:
    """A fit up to its cross-validation: fold plan and whitened data."""

    spec: ModelSpec
    plan: FoldPlan
    components: VarianceComponents
    transformed: TransformedData


def _prepare_fit(
    data: PanelDataset,
    weights: SpatialWeights,
    spec: ModelSpec,
    config: BoostConfig,
    cv_kind: FoldKind,
    n_folds: int,
    seed: int,
) -> _Prepared:
    """First phase of a fit: the fold plan, then ``prepare`` with it."""
    plan = build_fold_plan(data, cv_kind, n_folds, seed)
    _, components, td = prepare(data, weights, spec, config, plan)
    return _Prepared(spec, plan, components, td)


def _cross_validate(
    prepared: Sequence[_Prepared], config: BoostConfig
) -> list[tuple[np.ndarray, int]]:
    """Second phase: each fit's CV curve and stopping iteration.

    The folds of all the fits are boosted together, in lockstep batches
    where they are small; each curve has the bits ``boost_cv_curve`` gives
    that fit alone.
    """
    curves = _cv_curves(
        [(p.transformed.response, p.transformed.design, p.plan) for p in prepared], config
    )
    return [(curve, choose_stopping_iteration(curve)) for curve in curves]


def _finish_fit(
    prepared: _Prepared,
    config: BoostConfig,
    curve: np.ndarray,
    m_opt: int,
    deselect_threshold: float | None,
    baseline: bool,
) -> FitResult:
    """Last phase: the final boost, deselection and the least-squares benchmark."""
    td = prepared.transformed
    fit = boost(td, config, n_iterations=m_opt)
    des = None
    if deselect_threshold is not None:
        des = deselect(td, config, fit, threshold=deselect_threshold)
    fgls = None
    unavailable = None
    if baseline:
        try:
            fgls = fgls_baseline(td)
        except RankError as exc:
            unavailable = str(exc)
    return FitResult(
        spec=prepared.spec,
        components=prepared.components,
        transformed=td,
        fold_plan=prepared.plan,
        cv_curve=curve,
        m_opt=m_opt,
        fit=fit,
        deselection=des,
        baseline=fgls,
        baseline_unavailable_reason=unavailable,
        names=td.names,
    )


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
    prepared = _prepare_fit(data, weights, spec, config, cv_kind, n_folds, seed)
    [(curve, m_opt)] = _cross_validate([prepared], config)
    return _finish_fit(prepared, config, curve, m_opt, deselect_threshold, baseline)
