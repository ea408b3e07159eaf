"""Componentwise L2 boosting with deselection.

Each iteration fits every candidate column to the current residual by a
univariate no-intercept least squares, keeps the one with the largest
squared-correlation score (equivalently the smallest residual sum of
squares; ties go to the lower column index), and moves the fit a fraction
``learning_rate`` of the way toward that univariate solution.  The
empirical risk ||y - eta||^2 / n is recorded after every iteration.

One kernel, ``_gram_path``, runs the final fit (``boost``), the
deselection refit and every cross-validation fold.  It updates the
correlations through Gram rows its caller supplies, in O(k) per
iteration, then replays the path on a held-out response, which for
``boost`` is the training response itself.  ``boost`` and the refit pass
their own products ``Z'z_j``.  A cross-validation fold passes rows of one
``Z'Z`` per curve less its held-out part, or, when that ``Z'Z`` would
outgrow the design, products over its training rows, so its path equals
that of ``boost`` on its training rows up to rounding; ``crossval`` runs
small folds stacked in a lockstep that keeps every operation and so every
bit.
Only the coefficients of the boosted preliminary residuals come from a
direct loop that recomputes ``Z'r``, ``_direct_coefficients``, kept for the
bits it pins.

Deselection afterwards attributes the total risk reduction to columns: a
column keeps its place only when its attributable share reaches the
threshold fraction of the total, and the model is re-boosted on the
surviving columns with the same iteration count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoLearnerError, RankError, ValidationError
from .transform import TransformedData


@dataclass(frozen=True)
class BoostConfig:
    """Boosting hyperparameters: step length and iteration budget."""

    learning_rate: float = 0.1
    m_stop: int = 1000

    def __post_init__(self):
        if not (0 < self.learning_rate <= 1):
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.m_stop < 1:
            raise ValidationError(f"m_stop must be at least 1, got {self.m_stop}")


@dataclass(frozen=True)
class BoostFit:
    """Result of a boosting run.

    ``selection_path[m]`` is the column index chosen at iteration m and
    ``increments[m]`` the coefficient increment applied there, so replaying
    the path reproduces ``coefficients`` exactly.  ``risk_path`` starts at
    the iteration-zero risk and has one entry per iteration after that.
    """

    coefficients: np.ndarray
    names: tuple[str, ...]
    selection_path: np.ndarray
    increments: np.ndarray
    risk_path: np.ndarray
    learning_rate: float
    excluded: tuple[str, ...] = ()

    @property
    def m_used(self) -> int:
        return len(self.selection_path)


@dataclass(frozen=True)
class DeselectionResult:
    """Risk-reduction attribution and the re-boosted sparse fit."""

    attributable: np.ndarray
    names: tuple[str, ...]
    retained: tuple[str, ...]
    threshold: float
    total_reduction: float
    refit: BoostFit | None


def _screen_norms(
    norms2: np.ndarray, active: np.ndarray | None, warn_label: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse squared column norms, the selectable mask and the dead mask.

    Columns among ``active`` (all columns when None) whose squared norm in
    ``norms2`` is exactly zero are identically zero; they are dropped from
    the selectable mask with a warning naming ``warn_label``, and their
    inverse norm is 0.
    """
    k = norms2.shape[0]
    selectable = np.ones(k, dtype=bool) if active is None else active.copy()
    dead = selectable & (norms2 == 0.0)
    if dead.any():
        label = f" ({warn_label})" if warn_label else ""
        warnings.warn(
            f"excluding {int(dead.sum())} identically zero column(s) from "
            f"boosting{label}: indices {np.nonzero(dead)[0][:8].tolist()}"
        )
        selectable &= ~dead
    if not selectable.any():
        raise NoLearnerError("no usable candidate column: all are identically zero")
    inv_norms2 = np.zeros(k)
    inv_norms2[selectable] = 1.0 / norms2[selectable]
    return inv_norms2, selectable, dead


def _screen_columns(
    z: np.ndarray, active: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_screen_norms`` of the columns of ``z``."""
    return _screen_norms(np.einsum("ij,ij->j", z, z), active)


def _gram_path(
    corr: np.ndarray,
    inv_norms2: np.ndarray,
    selectable: np.ndarray,
    gram_row,
    heldout_response: np.ndarray,
    heldout_columns: np.ndarray,
    learning_rate: float,
    n_iterations: int,
):
    """``n_iterations`` boosting updates: (selection, steps, heldout_risk).

    ``corr`` holds the starting correlations ``Z'y`` and is updated in
    place; ``inv_norms2`` and ``selectable`` are the screen of
    ``_screen_norms``; ``gram_row(j)`` returns the Gram row ``Z'z_j``.
    ``selection[m]`` is the column chosen at iteration m and ``steps[m]``
    its coefficient increment.  ``heldout_risk[m]`` is the mean squared
    error of ``heldout_response`` after m updates; ``heldout_columns`` is
    its design transposed, so that column j is row j.

    The correlations follow ``Z'(r - s z_j) = Z'r - s Z'z_j``, with Gram row
    j fetched when column j is first selected, and the held-out residual
    then replays the path through views of its columns: O(k + n_out) an
    iteration plus one Gram row a distinct column, which is all a call
    keeps of it.  Scores carry a penalty, 0 for a selectable column and
    -inf otherwise.  The outputs are allocated before the cache, not among
    its freed rows.
    """
    penalty = np.where(selectable, 0.0, -np.inf)
    grams: dict[int, np.ndarray] = {}  # Gram row j, once column j is selected
    d_out = np.array(heldout_response, dtype=float)
    scores = np.empty_like(corr)
    corr_step = np.empty_like(corr)
    out_step = np.empty_like(d_out)
    selection = np.empty(n_iterations, dtype=np.int64)
    steps = np.empty(n_iterations)
    risk_out = np.empty(n_iterations + 1)
    for m in range(n_iterations):
        np.multiply(corr, corr, out=scores)
        np.multiply(scores, inv_norms2, out=scores)
        np.add(scores, penalty, out=scores)
        j = int(scores.argmax())
        step = learning_rate * corr.item(j) * inv_norms2.item(j)
        gram = grams.get(j)
        if gram is None:
            gram = grams[j] = gram_row(j)
        corr -= np.multiply(gram, step, out=corr_step)
        selection[m] = j
        steps[m] = step
    risk_out[0] = d_out @ d_out
    for m, (j, step) in enumerate(zip(selection.tolist(), steps.tolist()), 1):
        d_out -= np.multiply(heldout_columns[j], step, out=out_step)
        risk_out[m] = d_out @ d_out
    risk_out /= len(d_out)
    return selection, steps, risk_out


def _direct_coefficients(
    response: np.ndarray, design: np.ndarray, learning_rate: float, n_iterations: int
) -> np.ndarray:
    """Coefficients after ``n_iterations`` updates that recompute ``Z'r``.

    Used only for the boosted preliminary residuals: their bits reach the
    whitener through the moment estimates, and the benchmark reference pins
    the whitener fingerprint of a fit whose preliminary residuals are
    boosted.  It gives way to ``_gram_path`` when a benchmark change
    re-records that reference.
    """
    z = np.asarray(design, dtype=float)
    k = z.shape[1]
    inv_norms2, selectable, _ = _screen_columns(z, None)
    resid = np.array(response, dtype=float)
    coef = np.zeros(k)
    neg_inf = np.full(k, -np.inf)
    for _ in range(n_iterations):
        corr = z.T @ resid
        scores = np.where(selectable, corr * corr * inv_norms2, neg_inf)
        j = int(np.argmax(scores))
        step = learning_rate * corr[j] * inv_norms2[j]
        coef[j] += step
        resid -= step * z[:, j]
    return coef


def boost(
    td: TransformedData,
    config: BoostConfig = BoostConfig(),
    active_columns: Sequence[str] | None = None,
    n_iterations: int | None = None,
) -> BoostFit:
    """Componentwise L2 boosting on transformed data.

    Parameters
    ----------
    td : TransformedData
    config : BoostConfig
    active_columns : optional sequence of column names
        Restrict selection to these columns (used by deselection refits).
        Other columns keep coefficient zero.
    n_iterations : optional int
        Override the number of iterations (defaults to ``config.m_stop``);
        0 is allowed and produces the zero model.
    """
    if n_iterations is None:
        n_iterations = config.m_stop
    if n_iterations < 0:
        raise ValidationError("n_iterations must be non-negative")
    active = None
    if active_columns is not None:
        index = {name: i for i, name in enumerate(td.names)}
        unknown = [s for s in active_columns if s not in index]
        if unknown:
            raise ValidationError(f"unknown column names: {unknown[:5]}")
        active = np.zeros(td.n_columns, dtype=bool)
        for s in active_columns:
            active[index[s]] = True
        if not active.any():
            raise NoLearnerError("active column set is empty")

    z = np.asarray(td.design, dtype=float)
    inv_norms2, selectable, dead = _screen_columns(z, active)
    # the training rows are the held-out pair: their risk is the risk path
    selection, steps, risk = _gram_path(
        z.T @ np.asarray(td.response, dtype=float),
        inv_norms2,
        selectable,
        lambda j: z.T @ z[:, j],
        td.response,
        z.T,
        config.learning_rate,
        n_iterations,
    )
    coef = np.zeros(td.n_columns)
    np.add.at(coef, selection, steps)
    return BoostFit(
        coefficients=coef,
        names=td.names,
        selection_path=selection,
        increments=steps,
        risk_path=risk,
        learning_rate=config.learning_rate,
        excluded=tuple(td.names[i] for i in np.nonzero(dead)[0]),
    )


def _check_threshold(threshold: float) -> None:
    if not (0 < threshold < 1):
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")


def deselect(
    td: TransformedData,
    config: BoostConfig,
    fit: BoostFit,
    threshold: float = 0.01,
) -> DeselectionResult:
    """Drop columns with a negligible share of the total risk reduction.

    Each iteration's risk reduction is attributed to the column selected
    there; columns whose attributable total falls below ``threshold`` times
    the overall reduction are removed and the model is boosted again on the
    survivors with the same iteration count and step length.
    """
    _check_threshold(threshold)
    if fit.names != td.names:
        raise ValidationError("fit and transformed data have different columns")
    k = td.n_columns
    attributable = np.zeros(k)
    reductions = fit.risk_path[:-1] - fit.risk_path[1:]
    np.add.at(attributable, fit.selection_path, reductions)
    total = float(fit.risk_path[0] - fit.risk_path[-1])
    if total <= 0.0:
        warnings.warn(
            "boosting achieved no risk reduction; deselection returns the empty model"
        )
        retained = ()
    else:
        keep = attributable >= threshold * total
        retained = tuple(td.names[i] for i in np.nonzero(keep)[0])
        if not retained:
            warnings.warn("every column fell below the deselection threshold")
    refit = boost(td, config, active_columns=retained, n_iterations=fit.m_used) if retained else None
    return DeselectionResult(
        attributable=attributable,
        names=td.names,
        retained=retained,
        threshold=threshold,
        total_reduction=total,
        refit=refit,
    )


def fgls_baseline(td: TransformedData) -> np.ndarray:
    """Least squares on the whitened data (the non-sparse benchmark).

    Requires more observations than columns and a full-rank design; when
    either fails there is no unique solution and a RankError is raised,
    which callers report as the method being unavailable.
    """
    z, y = td.design, td.response
    n, k = z.shape
    if k >= n:
        raise RankError(
            f"least squares needs fewer columns than observations, got {k} >= {n}"
        )
    coef, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
    if rank < k:
        raise RankError(f"transformed design has rank {rank} < {k} columns")
    return coef
