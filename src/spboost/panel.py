"""Balanced panel data and design construction.

Stacking convention used everywhere in this package: observations are ordered
period-major, so the vector entry for location i in period t sits at index
``i + n_locations * t``.  Reshaping a stacked vector to
``(n_periods, n_locations)`` therefore puts one period per row.
"""

from __future__ import annotations

import csv
import enum
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    FixedEffectsInfeasibleError,
    ParseError,
    UnbalancedPanelError,
    ValidationError,
)
from .weights import SpatialWeights, _centroid_array, _csv_rows, _frozen, _read_only

INTERCEPT_NAME = "intercept"
LAG_PREFIX = "W_"


class Family(str, enum.Enum):
    """Which spatial autocorrelation parameters the error model carries.

    ANS restricts the location-effect process to have no spatial lag
    (its autocorrelation parameter is pinned at zero), KKP ties both
    processes to a single shared parameter, and GSPECM leaves the two
    parameters free.
    """

    ANS = "ans"
    KKP = "kkp"
    GSPECM = "gspecm"


class Effects(str, enum.Enum):
    RANDOM = "random"
    FIXED = "fixed"


@dataclass(frozen=True)
class ModelSpec:
    """Estimation options: family, effects, and design content."""

    family: Family = Family.GSPECM
    effects: Effects = Effects.RANDOM
    include_spatial_lags: bool = True
    include_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "effects", Effects(self.effects))
        if self.effects is Effects.FIXED and self.include_intercept:
            raise FixedEffectsInfeasibleError(INTERCEPT_NAME)


@dataclass(frozen=True)
class PanelDataset:
    """A balanced panel in stacked period-major order.

    Parameters
    ----------
    response : ndarray of shape (n_locations * n_periods,)
    regressors : ndarray of shape (n_locations * n_periods, p)
    regressor_names : sequence of str
    location_ids, period_ids : sequences of str labels
    centroids : optional ndarray of shape (n_locations, 2)
    """

    response: np.ndarray
    regressors: np.ndarray
    regressor_names: tuple[str, ...]
    location_ids: tuple[str, ...]
    period_ids: tuple[str, ...]
    centroids: np.ndarray | None = None

    def __post_init__(self):
        y = _read_only(self.response)
        x = _read_only(self.regressors)
        names = tuple(str(s) for s in self.regressor_names)
        locs = tuple(str(s) for s in self.location_ids)
        pers = tuple(str(s) for s in self.period_ids)
        n, t = len(locs), len(pers)
        if n < 1 or t < 1:
            raise ValidationError("panel needs at least one location and one period")
        if len(set(locs)) != n:
            raise ValidationError("duplicate location ids")
        if len(set(pers)) != t:
            raise ValidationError("duplicate period ids")
        if y.ndim != 1 or y.shape[0] != n * t:
            raise ValidationError(
                f"response has shape {y.shape}, expected ({n * t},) for "
                f"{n} locations x {t} periods"
            )
        if x.ndim != 2 or x.shape[0] != n * t:
            raise ValidationError(f"regressors have shape {x.shape}, expected ({n * t}, p)")
        if x.shape[1] != len(names):
            raise ValidationError(
                f"{x.shape[1]} regressor columns but {len(names)} names"
            )
        if len(set(names)) != len(names):
            raise ValidationError("duplicate regressor names")
        if not np.all(np.isfinite(y)):
            raise ValidationError("response contains non-finite entries")
        if not np.all(np.isfinite(x)):
            raise ValidationError("regressors contain non-finite entries")
        cent = self.centroids
        if cent is not None:
            cent = _centroid_array(_read_only(cent), n)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "regressors", x)
        object.__setattr__(self, "regressor_names", names)
        object.__setattr__(self, "location_ids", locs)
        object.__setattr__(self, "period_ids", pers)
        object.__setattr__(self, "centroids", cent)

    @property
    def n_locations(self) -> int:
        return len(self.location_ids)

    @property
    def n_periods(self) -> int:
        return len(self.period_ids)

    @property
    def n_obs(self) -> int:
        return self.n_locations * self.n_periods


@dataclass(frozen=True)
class AugmentedDesign:
    """Candidate design: intercept, regressors, and their spatial lags."""

    columns: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        cols = _read_only(self.columns)
        if cols.ndim != 2:
            raise ValidationError("design must be a 2-d array")
        if len(self.names) != cols.shape[1]:
            raise AlignmentError("design names do not match the column count")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]


def _by_period(values, n_locations: int, n_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as a float array and its ``(n_periods, n_locations, -1)``
    view, one period per slab: the one check every operator on a stacked
    vector (n*t,) or matrix (n*t, k) makes of its row count."""
    v, rows = np.asarray(values, dtype=float), n_locations * n_periods
    if v.shape[0] != rows:
        raise ValidationError(f"stacked array has {v.shape[0]} rows, expected {rows}")
    return v, v.reshape(n_periods, n_locations, -1)


def _check_weight_size(data: PanelDataset, weights: SpatialWeights) -> None:
    """Refuse weights whose location count is not the panel's."""
    if weights.n_locations != data.n_locations:
        raise ValidationError(
            f"weight matrix is {weights.n_locations}x{weights.n_locations} but the "
            f"panel has {data.n_locations} locations"
        )


def spatial_lag(values: np.ndarray, weights: SpatialWeights, n_periods: int) -> np.ndarray:
    """Apply the weight matrix within each period block (rows as ``_by_period``).

    Never forms the block-diagonal operator: a vector takes one product with
    W' over its (t, n) periods, a matrix goes through ``SpatialWeights._lag``.
    """
    v, cube = _by_period(values, weights.n_locations, n_periods)
    if v.ndim == 1:
        return (cube[:, :, 0] @ weights.matrix.T).reshape(-1)
    return weights._lag(cube).reshape(v.shape)


def _time_invariant_columns(x: np.ndarray, n: int, t: int) -> np.ndarray:
    """Boolean mask of columns constant over time within every location."""
    cube = x.reshape(t, n, -1)
    return np.all(cube == cube[0], axis=(0, 1))


def augment_design(
    data: PanelDataset, weights: SpatialWeights, spec: ModelSpec
) -> AugmentedDesign:
    """Build the candidate column set for a model specification.

    Columns are ordered: intercept (if any), the regressors as given, then
    one spatial lag per regressor (if requested).  Under fixed effects any
    regressor that is time-invariant for every location is rejected, because
    the within transform would map it to an identically zero column.  A
    design without any column (no regressor and no intercept) is refused
    with ``ValidationError`` before anything is estimated.
    """
    _check_weight_size(data, weights)
    if not (spec.include_intercept or data.regressor_names):
        raise ValidationError(
            "the candidate design has no column: the panel has no regressor and "
            "the intercept is dropped"
        )
    x = data.regressors
    if spec.effects is Effects.FIXED:
        if data.n_periods < 2:
            raise ValidationError("fixed effects need at least two periods")
        invariant = _time_invariant_columns(x, data.n_locations, data.n_periods)
        if invariant.any():
            bad = data.regressor_names[int(np.argmax(invariant))]
            raise FixedEffectsInfeasibleError(bad)

    blocks = []
    names: list[str] = []
    if spec.include_intercept:
        if INTERCEPT_NAME in data.regressor_names:
            raise ValidationError(
                f"regressor name {INTERCEPT_NAME!r} collides with the intercept column"
            )
        blocks.append(np.ones((data.n_obs, 1)))
        names.append(INTERCEPT_NAME)
    blocks.append(x)
    names.extend(data.regressor_names)
    if spec.include_spatial_lags:
        lag_names = [LAG_PREFIX + s for s in data.regressor_names]
        clash = set(lag_names) & set(names)
        if clash:
            raise ValidationError(f"spatial lag names collide with regressors: {sorted(clash)}")
        blocks.append(spatial_lag(x, weights, data.n_periods))
        names.extend(lag_names)
    return AugmentedDesign(_frozen(np.hstack(blocks)), tuple(names))


def read_panel_csv(path: str) -> PanelDataset:
    """Read a long-format panel CSV with header ``location,period,y,<x...>``.

    Locations and periods are ordered by first appearance in the file; the
    panel must be balanced (every location observed in every period, no
    duplicates).

    Each record's values go straight into one growing float array in file
    order, with the record's location and period indices beside them; one
    index permutation then puts the records in stacked order.  Duplicates
    are checked against the set of cells seen so far, so the first repeated
    row is the one reported.
    """
    with _csv_rows(path) as reader:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", row=1)
        header = [c.strip() for c in header]
        if header[:3] != ["location", "period", "y"]:
            raise ParseError("expected header to start with 'location,period,y'", row=1)
        xnames = header[3:]
        if len(set(xnames)) != len(xnames):
            raise ParseError("duplicate regressor names in header", row=1)
        values = array("d")
        loc_of_row = array("q")
        per_of_row = array("q")
        loc_index: dict[str, int] = {}
        per_index: dict[str, int] = {}
        seen: set[tuple[int, int]] = set()
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(rec)}", row=rownum
                )
            loc, per = rec[0].strip(), rec[1].strip()
            try:
                values.extend(map(float, rec[2:]))
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            li = loc_index.setdefault(loc, len(loc_index))
            pi = per_index.setdefault(per, len(per_index))
            if (li, pi) in seen:
                raise UnbalancedPanelError(
                    f"duplicate observation for location {loc!r}, period {per!r} "
                    f"at row {rownum}"
                )
            seen.add((li, pi))
            loc_of_row.append(li)
            per_of_row.append(pi)

    n, t = len(loc_index), len(per_index)
    if n == 0:
        raise ParseError("file contains a header but no data rows", row=2)
    loc_of_row = np.frombuffer(loc_of_row, dtype=np.int64)
    per_of_row = np.frombuffer(per_of_row, dtype=np.int64)
    if len(loc_of_row) != n * t:
        observed = np.zeros((t, n), dtype=bool)
        observed[per_of_row, loc_of_row] = True
        pi, li = np.argwhere(~observed)[0]
        raise UnbalancedPanelError(
            f"missing observation for location {list(loc_index)[li]!r}, "
            f"period {list(per_index)[pi]!r}"
        )
    stacked_row = loc_of_row + n * per_of_row
    order = np.empty(n * t, dtype=np.intp)
    order[stacked_row] = np.arange(n * t)
    stacked = np.frombuffer(values).reshape(n * t, -1)[order]
    del values
    return PanelDataset(
        response=stacked[:, 0],
        regressors=stacked[:, 1:],
        regressor_names=tuple(xnames),
        location_ids=tuple(loc_index),
        period_ids=tuple(per_index),
    )


def write_panel_csv(path: str, data: PanelDataset) -> None:
    """Write a panel back to the long CSV format accepted by read_panel_csv."""
    n = data.n_locations
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "period", "y"] + list(data.regressor_names))
        for ti, per in enumerate(data.period_ids):
            for li, loc in enumerate(data.location_ids):
                row = li + n * ti
                writer.writerow(
                    [loc, per, repr(float(data.response[row]))]
                    + [repr(float(v)) for v in data.regressors[row]]
                )
