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
        v = np.asarray(values, dtype=float)
        n, t = self.n_locations, self.n_periods
        if v.shape[0] != n * t:
            raise ValidationError(
                f"stacked array has {v.shape[0]} rows, expected {n * t}"
            )
        shape = (t, n) if v.ndim == 1 else (t, n, v.shape[1])
        cube = v.reshape(shape)
        mean = cube.mean(axis=0, keepdims=True)
        if self.kind is ProjectorKind.WITHIN:
            out = cube - mean
        elif self.kind is ProjectorKind.BETWEEN:
            out = np.broadcast_to(mean, shape)
        else:
            out = mean - (cube - mean) / (t - 1)
        return np.ascontiguousarray(out).reshape(v.shape)


# Margin by which the off-diagonal row sums of rho * W must stay below one
# before the filter is taken as nonsingular without an LU test; see
# SpatialFilter.
DOMINANCE_MARGIN = 1e-6


@dataclass
class SpatialFilter:
    """The filter (I - rho * W); its LU factorization is built on first solve.

    scipy.linalg is imported only then, so code that never factorizes a
    filter never loads it.

    A filter whose scaled off-diagonal row sums ``s = |rho| * max_i sum_j
    w_ij`` stay below one is strictly diagonally dominant, hence nonsingular,
    and every pivot of its LU factorization is at least ``1 - s`` (Varah's
    bound holds for each Schur complement).  When ``1 - s`` exceeds
    DOMINANCE_MARGIN, far above the relative pivot floor of 1e-14 and its
    rounding, no factorization is needed to accept the filter; that always
    holds for row-normalized weights with |rho| <= 0.999.  Otherwise the LU
    is built at once and a numerically singular filter is refused.
    """

    rho: float
    weights: SpatialWeights

    def __post_init__(self):
        if not np.isfinite(self.rho) or abs(self.rho) >= 1:
            raise ValidationError(f"spatial parameter must satisfy |rho| < 1, got {self.rho}")
        w = self.weights.matrix
        # 0 - rho*w and a unit diagonal: the bits of np.eye(n) - rho * w
        # without a second n x n temporary (the diagonal of w is zero)
        self._matrix = np.multiply(self.rho, w)
        np.subtract(0.0, self._matrix, out=self._matrix)
        np.fill_diagonal(self._matrix, 1.0)
        self._lu = None
        if 1.0 - abs(self.rho) * w.sum(axis=1).max() <= DOMINANCE_MARGIN:
            self._factorize()

    def _factorize(self):
        if self._lu is None:
            # imported here: a fit on row-normalized weights never factorizes,
            # so it never pays for loading scipy.linalg
            from scipy.linalg import lu_factor

            try:
                lu = lu_factor(self._matrix)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                raise SingularFilterError(str(exc)) from None
            diag = np.abs(np.diag(lu[0]))
            if diag.min() <= 1e-14 * max(diag.max(), 1.0):
                raise SingularFilterError(
                    f"filter I - {self.rho} * W is numerically singular"
                )
            self._lu = lu
        return self._lu

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def solve(self, values: np.ndarray, n_periods: int = 1) -> np.ndarray:
        """(I - rho W)^{-1} v within each period block."""
        v = np.asarray(values, dtype=float)
        n = self.weights.n_locations
        if v.shape[0] != n * n_periods:
            raise ValidationError(f"expected {n * n_periods} rows, got {v.shape[0]}")
        cube = v.reshape(n_periods, n, -1)
        lu = self._factorize()
        from scipy.linalg import lu_solve

        out = np.stack([lu_solve(lu, block) for block in cube])
        return out.reshape(v.shape)


def symmetric_sqrt(block: np.ndarray, what: str) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix.

    Refuses blocks whose smallest eigenvalue falls below a relative floor
    instead of regularizing them silently.  Holds at most three n x n
    arrays of its own at once besides ``block``.
    """
    return _consume_sqrt([block], what)


def _consume_sqrt(holder: list, what: str) -> np.ndarray:
    """symmetric_sqrt of the one array in ``holder``, which it empties.

    The block is dropped once symmetrized, before ``eigh`` runs: a caller
    that hands over its last reference this way does not keep the block
    alive through the decomposition, which an argument would (the caller's
    frame holds it until the call returns).
    """
    block = holder.pop()
    sym = 0.5 * (block + block.T)
    del block
    eigval, eigvec = np.linalg.eigh(sym)
    del sym
    floor = EIGENVALUE_FLOOR * max(eigval[-1], 0.0)
    if eigval[0] <= floor:
        raise ConditioningError(
            f"{what} is numerically rank deficient", min_eigenvalue=float(eigval[0])
        )
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


class WhitenerMode(enum.Enum):
    RANDOM_GLS = "random_gls"
    FIXED_WITHIN = "fixed_within"


@dataclass(frozen=True)
class WhiteningOperator:
    """Linear map that turns the model's error covariance into the identity.

    Random effects: applies one n x n block on the between (time-mean)
    subspace and another on the within subspace; together they realize the
    inverse square root of the stacked error covariance.  Squaring the
    operator therefore reproduces the full covariance inverse.

    Fixed effects: applies the demeaning projector followed by the
    idiosyncratic spatial filter; the result is the within-whitened panel
    (up to the constant idiosyncratic variance, which affects no
    least-squares or boosting decision).
    """

    mode: WhitenerMode
    between_block: np.ndarray | None
    within_block: np.ndarray
    n_periods: int

    def __post_init__(self):
        n = self.within_block.shape[0]
        if self.within_block.shape != (n, n):
            raise ValidationError("within block must be square")
        if self.mode is WhitenerMode.RANDOM_GLS:
            if self.between_block is None or self.between_block.shape != (n, n):
                raise ValidationError("random-effects whitener needs a square between block")
        if self.n_periods < 2:
            raise ValidationError("whitening needs at least two periods")

    @property
    def n_locations(self) -> int:
        return self.within_block.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        n, t = self.n_locations, self.n_periods
        if v.shape[0] != n * t:
            raise ValidationError(f"expected {n * t} rows, got {v.shape[0]}")
        cube = v.reshape(t, n, -1)
        mean = cube.mean(axis=0)
        # one BLAS product per period
        out = self.within_block @ (cube - mean)
        if self.mode is WhitenerMode.RANDOM_GLS:
            out += self.between_block @ mean
        return out.reshape(v.shape)


def random_effects_whitener(
    components: "VarianceComponents", weights: SpatialWeights, n_periods: int
) -> WhiteningOperator:
    """Inverse-square-root whitener for the random-effects error covariance.

    The covariance has one n x n block on the between subspace,
    ``t * s2_loc * inv(A'A) + s2_idio * inv(B'B)`` with A and B the two
    spatial filters, and ``s2_idio * inv(B'B)`` on the within subspace.
    Both blocks are inverted and square-rooted by eigendecomposition.

    No LU factorization or identity right-hand side is formed, and each
    n x n intermediate is released once used; the input of each eigh is
    released once symmetrized, before the decomposition runs.  Resident
    memory, LAPACK's input copies and eigh workspace included, peaks at
    about 5.3 n x n blocks at n = 2000 (about 171 MB) and 5.9 at n = 1000,
    the two returned blocks included.
    """
    if n_periods < 2:
        raise ValidationError("random-effects whitening needs at least two periods")
    if components.sigma_eps2 is None or components.sigma_eps2 <= 0:
        raise ValidationError("idiosyncratic variance must be positive")
    if components.rho1 is None or components.sigma_mu2 is None:
        raise ValidationError("random-effects whitening needs the location-effect parameters")
    if components.sigma_mu2 < 0:
        raise ValidationError("location-effect variance must be non-negative")
    bb = _filter_gram(components.rho2, weights)
    between_cov = components.sigma_eps2 * np.linalg.inv(bb)
    if components.sigma_mu2 > 0:
        loc_gram = _filter_gram(components.rho1, weights)
        between_cov += n_periods * components.sigma_mu2 * np.linalg.inv(loc_gram)
        del loc_gram
    holder = [np.linalg.inv(0.5 * (between_cov + between_cov.T))]
    del between_cov
    between_block = _consume_sqrt(holder, "between covariance block")
    bb /= components.sigma_eps2
    holder.append(bb)
    del bb
    return WhiteningOperator(
        mode=WhitenerMode.RANDOM_GLS,
        between_block=between_block,
        within_block=_consume_sqrt(holder, "within covariance block"),
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
        mode=WhitenerMode.FIXED_WITHIN,
        between_block=None,
        within_block=SpatialFilter(components.rho2, weights).matrix,
        n_periods=n_periods,
    )
