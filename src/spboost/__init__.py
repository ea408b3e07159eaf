"""spboost: boosted estimation for spatial panels with error components.

Estimates generalized spatial panel error-component models by a two-stage
procedure: method-of-moments estimation of the spatial autocorrelation and
variance parameters from preliminary residuals, a whitening transform of
the stacked data, and componentwise L2 boosting with cross-validated early
stopping for coefficient estimation and variable selection, optionally
followed by deselection of columns with a negligible risk contribution.
"""

__version__ = "0.1.0"

from .boosting import (
    BoostConfig,
    BoostFit,
    DeselectionResult,
    boost,
    deselect,
    fgls_baseline,
)
from .crossval import (
    FoldKind,
    FoldPlan,
    boost_cv_curve,
    choose_stopping_iteration,
    make_spatial_folds,
    make_time_folds,
)
from .errors import (
    AlignmentError,
    ConditioningError,
    DegenerateGeometryError,
    EstimationError,
    EstimationFailureError,
    FixedEffectsInfeasibleError,
    IsolatedUnitError,
    NoLearnerError,
    ParseError,
    RankError,
    SingularFilterError,
    SpboostError,
    UnbalancedPanelError,
    ValidationError,
)
from .gmm import (
    MomentSolution,
    MomentSystem,
    ResidualTriple,
    VarianceComponents,
    estimate_variance_components,
    idiosyncratic_moment_system,
    initial_residuals,
    location_effect_moment_system,
    solve_moment_system,
)
from .linalg import (
    ProjectorKind,
    SpatialFilter,
    TimeProjector,
    WhiteningOperator,
    fixed_effects_whitener,
    random_effects_whitener,
    symmetric_sqrt,
)
from .panel import (
    INTERCEPT_NAME,
    LAG_PREFIX,
    AugmentedDesign,
    Effects,
    Family,
    ModelSpec,
    PanelDataset,
    augment_design,
    read_panel_csv,
    spatial_lag,
    write_panel_csv,
)
from .pipeline import (
    FitResult,
    build_fold_plan,
    fit_model,
    standardize_regressors,
    whiten,
)
from .simulate import (
    DgpConfig,
    MethodMetrics,
    SimulationMetrics,
    evaluate_mse,
    evaluate_selection,
    generate_panel,
    run_experiment,
)
from .transform import TransformedData, transform_fixed, transform_random
from .weights import (
    SpatialWeights,
    build_knn_weights,
    read_centroid_csv,
    read_neighbor_csv,
    row_normalize,
)

__all__ = [
    "__version__",
    # panel
    "PanelDataset", "ModelSpec", "AugmentedDesign", "Family", "Effects",
    "augment_design", "spatial_lag", "read_panel_csv", "write_panel_csv",
    "INTERCEPT_NAME", "LAG_PREFIX",
    # weights
    "SpatialWeights", "build_knn_weights", "row_normalize",
    "read_centroid_csv", "read_neighbor_csv",
    # structured linear algebra
    "TimeProjector", "ProjectorKind", "SpatialFilter", "WhiteningOperator",
    "random_effects_whitener", "fixed_effects_whitener", "symmetric_sqrt",
    # moments
    "ResidualTriple", "MomentSystem", "MomentSolution", "VarianceComponents",
    "initial_residuals", "idiosyncratic_moment_system",
    "location_effect_moment_system", "solve_moment_system",
    "estimate_variance_components",
    # transform
    "TransformedData", "transform_random", "transform_fixed",
    # boosting
    "BoostConfig", "BoostFit", "DeselectionResult", "boost", "deselect",
    "fgls_baseline",
    # cross-validation
    "FoldKind", "FoldPlan", "make_spatial_folds", "make_time_folds",
    "boost_cv_curve", "choose_stopping_iteration",
    # pipeline
    "FitResult", "fit_model", "whiten", "build_fold_plan",
    "standardize_regressors",
    # simulation
    "DgpConfig", "generate_panel", "evaluate_selection", "evaluate_mse",
    "run_experiment", "SimulationMetrics", "MethodMetrics",
    # errors
    "SpboostError", "ValidationError", "ParseError", "UnbalancedPanelError",
    "DegenerateGeometryError", "IsolatedUnitError",
    "FixedEffectsInfeasibleError", "AlignmentError", "EstimationError",
    "ConditioningError", "SingularFilterError", "RankError", "NoLearnerError",
    "EstimationFailureError",
]
