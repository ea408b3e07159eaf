"""Exception hierarchy for spboost.

Two branches matter for callers: ValidationError covers everything wrong
with the inputs (shapes, file contents, infeasible model specs), while
EstimationError covers numerical failures that occur after the inputs have
been accepted.  The command line maps the former to exit code 2, the latter
to exit code 3, and unreadable/unwritable files to exit code 4.
"""

from __future__ import annotations


class SpboostError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt without __init__, which some subclasses pass the values
        # they format into the message; a worker's error is pickled
        return type(self).__new__, (type(self), *self.args), self.__dict__


class ValidationError(SpboostError):
    """Invalid input data, parameters, or model specification."""


class ParseError(ValidationError):
    """Malformed input file content.

    Carries the 1-based row number of the offending record when known.
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class UnbalancedPanelError(ValidationError):
    """Panel is missing (location, period) combinations or repeats them."""


class DegenerateGeometryError(ValidationError):
    """Coincident or otherwise unusable centroids."""


class IsolatedUnitError(ValidationError):
    """A location has no neighbours, so its weight row cannot be normalized."""

    def __init__(self, location: object):
        super().__init__(f"location {location!r} has no neighbours (zero weight row)")
        self.location = location


class FixedEffectsInfeasibleError(ValidationError):
    """A regressor is time-invariant and would be annihilated by the within transform."""

    def __init__(self, column: str):
        super().__init__(
            f"column {column!r} is time-invariant for every location and cannot be "
            "estimated under fixed effects (the within transform maps it to zero)"
        )
        self.column = column


class AlignmentError(ValidationError):
    """Coefficient names do not line up between two objects."""


class EstimationError(SpboostError):
    """Numerical failure during estimation."""


class ConditioningError(EstimationError):
    """A covariance block is numerically rank deficient.

    Raised instead of silently regularizing; carries the offending minimum
    eigenvalue so the caller can see how degenerate the block is.
    """

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(f"{message} (minimum eigenvalue {min_eigenvalue:.6e})")
        self.min_eigenvalue = min_eigenvalue


class SingularFilterError(EstimationError):
    """The spatial filter I - rho*W is numerically singular."""


class RankError(EstimationError):
    """The design matrix does not support a unique least-squares solution."""


class NoLearnerError(EstimationError):
    """Every candidate column is identically zero; boosting has nothing to select."""


class EstimationFailureError(EstimationError):
    """A moment solve gave no usable estimate.

    Raised when no start of the solver gives a finite objective, or when
    the idiosyncratic variance comes out zero on non-degenerate data.
    Carries the best candidate found and its residual norm for diagnosis.
    """

    def __init__(self, message: str, candidate=None, residual_norm: float | None = None):
        if residual_norm is not None:
            message = f"{message} (best candidate {candidate}, residual norm {residual_norm:.6e})"
        super().__init__(message)
        self.candidate = candidate
        self.residual_norm = residual_norm
