"""Whitening transforms of the stacked response and design.

After estimating the variance and autocorrelation parameters, estimation
proceeds on a transformed copy of the data in which ordinary least squares
(and componentwise boosting, which minimizes the same squared loss) is
efficient.  The random-effects transform realizes the inverse square root
of the full error covariance; the fixed-effects transform demeans over time
and applies the idiosyncratic spatial filter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import FixedEffectsInfeasibleError, ValidationError
from .linalg import WhitenerMode, WhiteningOperator
from .panel import AugmentedDesign, Effects, PanelDataset
from .weights import _frozen, _read_only


@dataclass(frozen=True)
class TransformedData:
    """Whitened response and design, ready for least squares or boosting."""

    response: np.ndarray
    design: np.ndarray
    names: tuple[str, ...]
    effects: Effects
    fingerprint: str

    def __post_init__(self):
        y = _read_only(self.response)
        z = _read_only(self.design)
        if y.ndim != 1 or z.ndim != 2 or z.shape[0] != y.shape[0]:
            raise ValidationError(
                f"response {y.shape} and design {z.shape} do not align"
            )
        if len(self.names) != z.shape[1]:
            raise ValidationError("one name per design column is required")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
            raise ValidationError("transformed data contains non-finite entries")
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "design", z)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "effects", Effects(self.effects))

    @property
    def n_obs(self) -> int:
        return self.response.shape[0]

    @property
    def n_columns(self) -> int:
        return self.design.shape[1]


def operator_fingerprint(op: WhiteningOperator) -> str:
    """Content hash of a whitening operator, for report provenance."""
    h = hashlib.sha256()
    h.update(op.mode.value.encode())
    h.update(np.int64(op.n_periods).tobytes())
    if op.between_block is not None:
        h.update(np.ascontiguousarray(op.between_block))
    h.update(np.ascontiguousarray(op.within_block))
    return h.hexdigest()[:12]


def _check_alignment(data: PanelDataset, design: AugmentedDesign, op: WhiteningOperator):
    if design.columns.shape[0] != data.n_obs:
        raise ValidationError("design rows do not match the panel")
    if op.n_locations != data.n_locations or op.n_periods != data.n_periods:
        raise ValidationError(
            f"whitener is for {op.n_locations} locations x {op.n_periods} periods, "
            f"panel has {data.n_locations} x {data.n_periods}"
        )


def transform_random(
    data: PanelDataset, design: AugmentedDesign, op: WhiteningOperator
) -> TransformedData:
    """Apply the random-effects whitener to the response and every column."""
    if op.mode is not WhitenerMode.RANDOM_GLS:
        raise ValidationError("transform_random needs a random-effects whitener")
    _check_alignment(data, design, op)
    return TransformedData(
        response=_frozen(op.apply(data.response)),
        design=_frozen(op.apply(design.columns)),
        names=design.names,
        effects=Effects.RANDOM,
        fingerprint=operator_fingerprint(op),
    )


def transform_fixed(
    data: PanelDataset, design: AugmentedDesign, op: WhiteningOperator
) -> TransformedData:
    """Apply the fixed-effects (within) transform to response and design.

    Any design column the transform annihilates must have been
    time-invariant; that is a specification error and is reported as such
    rather than silently producing a useless zero column.
    """
    if op.mode is not WhitenerMode.FIXED_WITHIN:
        raise ValidationError("transform_fixed needs a fixed-effects whitener")
    _check_alignment(data, design, op)
    star = op.apply(design.columns)
    norms_in = np.linalg.norm(design.columns, axis=0)
    norms_out = np.linalg.norm(star, axis=0)
    annihilated = (norms_in > 0) & (norms_out <= 1e-14 * norms_in)
    if annihilated.any():
        raise FixedEffectsInfeasibleError(design.names[int(np.argmax(annihilated))])
    return TransformedData(
        response=_frozen(op.apply(data.response)),
        design=_frozen(star),
        names=design.names,
        effects=Effects.FIXED,
        fingerprint=operator_fingerprint(op),
    )
