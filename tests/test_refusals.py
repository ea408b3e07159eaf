"""Every input outside the model's layout is refused with a typed error and
one message, wherever it enters.

Each input kind has one check: a stacked array's row count
(``panel._by_period``), a centroid array (``weights._centroid_array``) and
a weight matrix's location count against the panel
(``panel._check_weight_size``).  The table calls every public entry point
that reaches each check, then the refusals of the records and entry points
that guard the rest of the pipeline.
"""

import functools

import numpy as np
import pytest

from spboost.boosting import boost
from spboost.crossval import FoldKind, FoldPlan, make_spatial_folds
from spboost.errors import NoLearnerError, RankError, ValidationError
from spboost.gmm import (
    MomentSystem,
    ResidualTriple,
    VarianceComponents,
    estimate_variance_components,
    initial_residuals,
)
from spboost.linalg import (
    ProjectorKind,
    SpatialFilter,
    TimeProjector,
    WhiteningOperator,
    fixed_effects_whitener,
    random_effects_whitener,
)
from spboost.panel import (
    AugmentedDesign,
    Effects,
    ModelSpec,
    PanelDataset,
    augment_design,
    spatial_lag,
)
from spboost.pipeline import fit_model
from spboost.simulate import DgpConfig
from spboost.transform import transform_fixed, transform_random
from spboost.weights import build_knn_weights

from conftest import make_panel, make_weights

N, T = 4, 3
FIXED = ModelSpec(effects=Effects.FIXED, include_intercept=False)
RANDOM_COMPONENTS = VarianceComponents(rho2=0.2, sigma_eps2=1.0, rho1=0.1, sigma_mu2=0.5)
FIXED_COMPONENTS = VarianceComponents(rho2=0.2, sigma_eps2=1.0)


def weights(n=N):
    return make_weights(n, seed=1, k=2)[0]


def data():
    return make_panel(N, T, 2, seed=1)


def random_op(n=N, t=T):
    return random_effects_whitener(RANDOM_COMPONENTS, weights(n), t)


def fixed_op(n=N, t=T):
    return fixed_effects_whitener(FIXED_COMPONENTS, weights(n), t)


def transformed():
    d = data()
    return transform_random(d, augment_design(d, weights(), ModelSpec()), random_op())


@functools.cache
def unfinished_fit():
    """A fit without deselection or baseline."""
    d = make_panel(12, T, 2, seed=4)
    return fit_model(d, weights(12), ModelSpec(), cv_kind=FoldKind.TIME, deselect_threshold=None)


def panel(**changes):
    fields = dict(
        response=np.zeros(4),
        regressors=np.zeros((4, 1)),
        regressor_names=("x1",),
        location_ids=("A", "B"),
        period_ids=("1", "2"),
    )
    return PanelDataset(**{**fields, **changes})


def with_nan(shape, index):
    out = np.zeros(shape)
    out[index] = np.nan
    return out


def moment_system(matrix=None, target="idiosyncratic"):
    if matrix is None:
        matrix = [[0.5, 0.1, 1.0], [0.2, 0.3, 0.7], [0.4, 0.1, 0.0]]
    return MomentSystem(np.array(matrix), np.array([0.3, 0.2, 0.1]), target)


def time_plan_with_fewer_folds_than_periods():
    assignment = np.repeat([0, 0, 1], N)  # constant within each of 3 periods
    return FoldPlan(FoldKind.TIME, 2, assignment, N, 3)


ROWS = "stacked array has 9 rows, expected 12"
SHAPE = "centroids must have shape (n, 2), got (4, 3)"
NON_FINITE = "centroids contain non-finite coordinates"
WIDER_W = "weight matrix is 5x5 but the panel has 4 locations"
OTHER_PANEL = "whitener is for 6 locations x 2 periods, panel has 4 x 3"

CASES = {
    # stacked arrays: panel._by_period
    "spatial_lag-vector": (lambda: spatial_lag(np.zeros(9), weights(), T), ValidationError, ROWS),
    "spatial_lag-matrix": (
        lambda: spatial_lag(np.zeros((9, 2)), weights(), T), ValidationError, ROWS
    ),
    "TimeProjector.apply": (
        lambda: TimeProjector(ProjectorKind.WITHIN, N, T).apply(np.zeros(9)), ValidationError, ROWS
    ),
    "SpatialFilter.solve": (
        lambda: SpatialFilter(0.3, weights()).solve(np.zeros(9), T), ValidationError, ROWS
    ),
    "WhiteningOperator.apply-random": (
        lambda: random_op().apply(np.zeros((9, 2))), ValidationError, ROWS
    ),
    "WhiteningOperator.apply-fixed": (lambda: fixed_op().apply(np.zeros(9)), ValidationError, ROWS),
    # centroids: weights._centroid_array
    "build_knn_weights-shape": (
        lambda: build_knn_weights(np.zeros((4, 3)), 2), ValidationError, SHAPE
    ),
    "build_knn_weights-1d": (
        lambda: build_knn_weights(np.zeros(4), 2),
        ValidationError,
        "centroids must have shape (n, 2), got (4,)",
    ),
    "build_knn_weights-non-finite": (
        lambda: build_knn_weights(with_nan((4, 2), (1, 0)), 2), ValidationError, NON_FINITE
    ),
    "make_spatial_folds-shape": (
        lambda: make_spatial_folds(np.zeros((4, 3)), 2, T, 0), ValidationError, SHAPE
    ),
    "make_spatial_folds-non-finite": (
        lambda: make_spatial_folds(with_nan((4, 2), (3, 1)), 2, T, 0), ValidationError, NON_FINITE
    ),
    "PanelDataset-centroid-count": (
        lambda: panel(centroids=np.zeros((3, 2))),
        ValidationError,
        "centroids must have shape (2, 2), got (3, 2)",
    ),
    "PanelDataset-non-finite-centroids": (
        lambda: panel(centroids=with_nan((2, 2), (0, 0))), ValidationError, NON_FINITE
    ),
    # weight size against the panel
    "augment_design-weight-size": (
        lambda: augment_design(data(), weights(5), ModelSpec()), ValidationError, WIDER_W
    ),
    "estimate_variance_components-weight-size": (
        lambda: estimate_variance_components(
            data(), augment_design(data(), weights(), ModelSpec()), weights(5), ModelSpec()
        ),
        ValidationError,
        WIDER_W,
    ),
    # the records and entry points that guard the rest of the pipeline
    "boost-negative-iterations": (
        lambda: boost(transformed(), n_iterations=-1),
        ValidationError,
        "n_iterations must be non-negative",
    ),
    "boost-empty-active-columns": (
        lambda: boost(transformed(), active_columns=[]),
        NoLearnerError,
        "active column set is empty",
    ),
    "FoldPlan-time-folds-not-periods": (
        time_plan_with_fewer_folds_than_periods,
        ValidationError,
        "leave-time-out uses one fold per period",
    ),
    "make_spatial_folds-no-periods": (
        lambda: make_spatial_folds(np.eye(4, 2), 2, 0, 0),
        ValidationError,
        "n_periods must be positive",
    ),
    "ResidualTriple-shapes": (
        lambda: ResidualTriple(np.zeros(3), np.zeros(4), np.zeros(3)),
        ValidationError,
        "residual vectors must share one shape",
    ),
    "ResidualTriple-non-finite": (
        lambda: ResidualTriple(np.zeros(3), with_nan(3, 2), np.zeros(3)),
        ValidationError,
        "lagged contains non-finite entries",
    ),
    "MomentSystem-shape": (
        lambda: moment_system(matrix=np.ones((3, 2))),
        ValidationError,
        "moment system must be 3x3 with a 3-vector",
    ),
    "MomentSystem-target": (
        lambda: moment_system(target="between"),
        ValidationError,
        "unknown moment target 'between'",
    ),
    "VarianceComponents-rho1": (
        lambda: VarianceComponents(rho2=0.0, sigma_eps2=1.0, rho1=1.0, sigma_mu2=1.0),
        ValidationError,
        "rho1 must satisfy |rho| < 1, got 1.0",
    ),
    "VarianceComponents-negative-sigma_mu2": (
        lambda: VarianceComponents(rho2=0.0, sigma_eps2=1.0, rho1=0.0, sigma_mu2=-1.0),
        ValidationError,
        "location-effect variance must be non-negative, got -1.0",
    ),
    "VarianceComponents-non-finite-sigma_mu2": (
        lambda: VarianceComponents(rho2=0.0, sigma_eps2=1.0, rho1=0.0, sigma_mu2=np.inf),
        ValidationError,
        "location-effect variance must be non-negative, got inf",
    ),
    "initial_residuals-design-rows": (
        lambda: initial_residuals(data(), AugmentedDesign(np.ones((9, 1)), ("a",)), weights()),
        ValidationError,
        "design rows do not match the panel",
    ),
    "TimeProjector-no-locations": (
        lambda: TimeProjector(ProjectorKind.BETWEEN, 0, T),
        ValidationError,
        "projector dimensions must be positive",
    ),
    "TimeProjector-no-periods": (
        lambda: TimeProjector(ProjectorKind.BETWEEN, N, 0),
        ValidationError,
        "projector dimensions must be positive",
    ),
    "WhiteningOperator-within-block": (
        lambda: WhiteningOperator(None, np.ones((3, 2)), T),
        ValidationError,
        "within block must be square",
    ),
    "WhiteningOperator-one-period": (
        lambda: WhiteningOperator(None, np.eye(3), 1),
        ValidationError,
        "whitening needs at least two periods",
    ),
    "PanelDataset-no-locations": (
        lambda: panel(response=np.zeros(0), regressors=np.zeros((0, 1)), location_ids=()),
        ValidationError,
        "panel needs at least one location and one period",
    ),
    "PanelDataset-no-periods": (
        lambda: panel(response=np.zeros(0), regressors=np.zeros((0, 1)), period_ids=()),
        ValidationError,
        "panel needs at least one location and one period",
    ),
    "PanelDataset-regressor-rows": (
        lambda: panel(regressors=np.zeros((5, 1))),
        ValidationError,
        "regressors have shape (5, 1), expected (4, p)",
    ),
    "PanelDataset-regressors-1d": (
        lambda: panel(regressors=np.zeros(4)),
        ValidationError,
        "regressors have shape (4,), expected (4, p)",
    ),
    "AugmentedDesign-1d": (
        lambda: AugmentedDesign(np.zeros(4), ("a",)),
        ValidationError,
        "design must be a 2-d array",
    ),
    "FitResult.coefficients-des": (
        lambda: unfinished_fit().coefficients("des"), ValidationError, "deselection was not run"
    ),
    "FitResult.coefficients-fgls": (
        lambda: unfinished_fit().coefficients("fgls"), ValidationError, "baseline was not run"
    ),
    "FitResult.coefficients-unknown": (
        lambda: unfinished_fit().coefficients("ols"), ValidationError, "unknown method 'ols'"
    ),
    "DgpConfig-one-location": (
        lambda: DgpConfig(n_locations=1),
        ValidationError,
        "the DGP needs at least 2 locations and 2 periods",
    ),
    "DgpConfig-one-period": (
        lambda: DgpConfig(n_periods=1),
        ValidationError,
        "the DGP needs at least 2 locations and 2 periods",
    ),
    "transform_random-other-panel": (
        lambda: transform_random(
            data(), augment_design(data(), weights(), ModelSpec()), random_op(6, 2)
        ),
        ValidationError,
        OTHER_PANEL,
    ),
    "transform_fixed-other-panel": (
        lambda: transform_fixed(data(), augment_design(data(), weights(), FIXED), fixed_op(6, 2)),
        ValidationError,
        OTHER_PANEL,
    ),
    "transform_fixed-random-whitener": (
        lambda: transform_fixed(data(), augment_design(data(), weights(), FIXED), random_op()),
        ValidationError,
        "transform_fixed needs a fixed-effects whitener",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_outside_the_layout_is_refused_with_one_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_unavailable_baseline_keeps_its_rank_error():
    # requested but under-determined (k > n t): the reason, as an estimation failure
    d = make_panel(4, 2, 5, seed=4)
    result = fit_model(
        d, weights(), ModelSpec(), cv_kind=FoldKind.TIME, deselect_threshold=None, baseline=True
    )
    assert result.baseline is None and result.baseline_unavailable_reason
    with pytest.raises(RankError) as excinfo:
        result.coefficients("fgls")
    assert str(excinfo.value) == result.baseline_unavailable_reason
