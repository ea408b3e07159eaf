"""Structured operators on stacked panels.

All big operators here have Kronecker structure (a t x t time part crossed
with an n x n spatial part), so they are applied blockwise to reshaped
arrays instead of ever forming an (n*t, n*t) matrix.  With the period-major
stacking used in this package, ``v.reshape(t, n)`` puts one period per row,
which makes every application a small matrix product or a broadcast.

Three time projectors cover everything needed downstream:

* WITHIN removes each location's time mean (the fixed-effects demeaning).
* BETWEEN replaces each entry by its location's time mean.
* BETWEEN_CONTRAST combines the two as mean - deviation/(t-1); quadratic
  forms in it isolate the location-effect variance because the
  idiosyncratic part cancels in expectation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConditioningError, SingularFilterError, ValidationError
from .panel import _by_period
from .weights import SpatialWeights

if TYPE_CHECKING:  # pragma: no cover
    from .gmm import VarianceComponents

EIGENVALUE_FLOOR = 1e-10  # relative to the largest eigenvalue of a block


class ProjectorKind(enum.Enum):
    WITHIN = "within"
    BETWEEN = "between"
    BETWEEN_CONTRAST = "between_contrast"


@dataclass(frozen=True)
class TimeProjector:
    """One of the three time-direction projections, applied blockwise."""

    kind: ProjectorKind
    n_locations: int
    n_periods: int

    def __post_init__(self):
        if self.n_locations < 1 or self.n_periods < 1:
            raise ValidationError("projector dimensions must be positive")
        if self.kind is not ProjectorKind.BETWEEN and self.n_periods < 2:
            raise ValidationError(
                f"{self.kind.value} projector needs at least two periods"
            )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The projection of a stacked vector or matrix (rows as ``_by_period``)."""
        v, cube = _by_period(values, self.n_locations, self.n_periods)
        mean = cube.mean(axis=0, keepdims=True)
        if self.kind is ProjectorKind.WITHIN:
            out = cube - mean
        elif self.kind is ProjectorKind.BETWEEN:
            out = np.broadcast_to(mean, cube.shape)
        else:
            out = mean - (cube - mean) / (self.n_periods - 1)
        return np.ascontiguousarray(out).reshape(v.shape)


# Margin of the rows-or-columns rule; see SpatialFilter.
DOMINANCE_MARGIN = 1e-6


@dataclass
class SpatialFilter:
    """The filter (I - rho * W), refused when numerically singular.

    ``matrix`` is ``SpatialWeights._eye_minus``.  The rows-or-columns rule, on
    W's ``_largest_sums``: a filter with ``|rho| * min(largest row sum, largest
    column sum) < 1 - DOMINANCE_MARGIN`` is strictly diagonally dominant by
    rows or by columns, hence nonsingular (Varah 1975, for the matrix or its
    transpose), and is accepted as it stands.  Every filter that a fit, a
    cross-validation or a transform builds passes it, by the weights and rho
    ``estimate_variance_components`` admits.  A filter dominant in neither
    direction is refused when its 1-norm condition number exceeds 1e14.  Only
    ``solve`` factorizes.
    """

    rho: float
    weights: SpatialWeights

    def __post_init__(self):
        if not np.isfinite(self.rho) or abs(self.rho) >= 1:
            raise ValidationError(f"spatial parameter must satisfy |rho| < 1, got {self.rho}")
        self._matrix = self.weights._eye_minus(self.rho)
        _, row_sum, _, col_sum = self.weights._largest_sums
        spread = abs(self.rho) * min(row_sum, col_sum)
        if spread >= 1.0 - DOMINANCE_MARGIN and np.linalg.cond(self._matrix, 1) > 1e14:
            raise SingularFilterError(f"filter I - {self.rho} * W is numerically singular")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def solve(self, values: np.ndarray, n_periods: int = 1) -> np.ndarray:
        """(I - rho W)^{-1} v in each period (rows as ``_by_period``), by one LU."""
        from scipy.linalg import lu_factor, lu_solve

        v, cube = _by_period(values, self.weights.n_locations, n_periods)
        lu = lu_factor(self._matrix)
        return np.stack([lu_solve(lu, block) for block in cube]).reshape(v.shape)


def symmetric_sqrt(block: np.ndarray, what: str) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix.

    Refuses blocks whose smallest eigenvalue falls below a relative floor
    instead of regularizing them silently.  ``block`` is left unchanged.
    """
    return _sqrt_in_place(np.array(block, dtype=float, order="C"), what)


def _sqrt_in_place(block: np.ndarray, what: str) -> np.ndarray:
    """Overwrite the C-ordered ``block`` with its symmetric square root.

    Symmetrized in place, the block is eigh's only input copy; it then
    receives ``(V sqrt(L)) V'`` and is returned.
    """
    block += block.T
    block *= 0.5
    eigval, eigvec = np.linalg.eigh(block)
    floor = EIGENVALUE_FLOOR * max(eigval[-1], 0.0)
    if eigval[0] <= floor:
        raise ConditioningError(
            f"{what} is numerically rank deficient", min_eigenvalue=float(eigval[0])
        )
    return np.matmul(eigvec * np.sqrt(eigval), eigvec.T, out=block)


class WhitenerMode(enum.Enum):
    RANDOM_GLS = "random_gls"
    FIXED_WITHIN = "fixed_within"


@dataclass(frozen=True)
class WhiteningOperator:
    """Linear map that turns the model's error covariance into the identity.

    Random effects (a ``between_block``): applies one n x n block on the
    between (time-mean) subspace and another on the within subspace;
    together they realize the inverse square root of the stacked error
    covariance.  Squaring the operator therefore reproduces the full
    covariance inverse.

    Fixed effects (no ``between_block``): applies the demeaning projector
    followed by the idiosyncratic spatial filter; the result is the
    within-whitened panel (up to the constant idiosyncratic variance, which
    affects no least-squares or boosting decision).  ``mode`` is derived.
    """

    between_block: np.ndarray | None
    within_block: np.ndarray
    n_periods: int

    def __post_init__(self):
        n = self.within_block.shape[0]
        if self.within_block.shape != (n, n):
            raise ValidationError("within block must be square")
        if self.between_block is not None and self.between_block.shape != (n, n):
            raise ValidationError("random-effects whitener needs a square between block")
        if self.n_periods < 2:
            raise ValidationError("whitening needs at least two periods")

    @property
    def mode(self) -> WhitenerMode:
        if self.between_block is None:
            return WhitenerMode.FIXED_WITHIN
        return WhitenerMode.RANDOM_GLS

    @property
    def n_locations(self) -> int:
        return self.within_block.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The whitened stacked vector or matrix (rows as ``_by_period``)."""
        v, cube = _by_period(values, self.n_locations, self.n_periods)
        mean = cube.mean(axis=0)
        out = np.empty(v.shape)
        # one BLAS product per period, each through a one-period temporary
        blocks = out.reshape(cube.shape)
        for p in range(self.n_periods):
            np.matmul(self.within_block, cube[p] - mean, out=blocks[p])
        if self.between_block is not None:
            blocks += self.between_block @ mean
        return out


def random_effects_whitener(
    components: "VarianceComponents", weights: SpatialWeights, n_periods: int
) -> WhiteningOperator:
    """Inverse-square-root whitener for the random-effects error covariance.

    The covariance has one n x n block on the between subspace,
    ``t * s2_loc * inv(A'A) + s2_idio * inv(B'B)`` with A and B the two
    spatial filters, and ``s2_idio * inv(B'B)`` on the within subspace.
    Both blocks are inverted and square-rooted by eigendecomposition.
    ``VarianceComponents`` already holds s2_idio > 0 and s2_loc >= 0;
    fixed-effects components (no rho1) are refused here.

    No LU factorization or identity right-hand side is formed.  Each n x n
    intermediate is scaled and symmetrized in place and released once used,
    and each eigh reads the one array that then receives its square root.
    Resident memory, LAPACK's input copy and eigh workspace included, rises
    by about 5.3 n x n blocks across the whitener (168 MB at n = 2000 inside
    a fit), the two returned blocks included.
    """
    if n_periods < 2:
        raise ValidationError("random-effects whitening needs at least two periods")
    if components.rho1 is None:
        raise ValidationError("random-effects whitening needs the location-effect parameters")
    bb = _filter_gram(components.rho2, weights)
    between_cov = np.linalg.inv(bb)
    between_cov *= components.sigma_eps2
    if components.sigma_mu2 > 0:
        loc_cov = np.linalg.inv(_filter_gram(components.rho1, weights))
        loc_cov *= n_periods * components.sigma_mu2
        between_cov += loc_cov
        del loc_cov
    # rooted before the between inverse: its freed LAPACK buffers stay
    # resident, and an eigh after them peaks one block higher at n = 1000
    bb /= components.sigma_eps2
    within_block = _sqrt_in_place(bb, "within covariance block")
    between_cov += between_cov.T
    between_cov *= 0.5
    between_block = np.linalg.inv(between_cov)
    del between_cov
    return WhiteningOperator(
        between_block=_sqrt_in_place(between_block, "between covariance block"),
        within_block=within_block,
        n_periods=n_periods,
    )


def _filter_gram(rho: float, weights: SpatialWeights) -> np.ndarray:
    """(I - rho W)'(I - rho W), with the filter released before returning."""
    filt = SpatialFilter(rho, weights).matrix
    return filt.T @ filt


def fixed_effects_whitener(
    components: "VarianceComponents", weights: SpatialWeights, n_periods: int
) -> WhiteningOperator:
    """Demeaning plus idiosyncratic spatial filtering for fixed effects."""
    if n_periods < 2:
        raise ValidationError("fixed-effects whitening needs at least two periods")
    return WhiteningOperator(
        between_block=None,
        within_block=SpatialFilter(components.rho2, weights).matrix,
        n_periods=n_periods,
    )
