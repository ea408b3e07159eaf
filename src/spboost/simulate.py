"""Monte Carlo harness for estimator comparison.

The data generating process: a balanced panel on seeded uniform random
centroids with a row-normalized k-nearest-neighbour weight matrix, regressor
values mixing a location-specific uniform level with an observation-level
uniform shock, a handful of informative coefficients (the rest are noise
candidates), and a two-part error made of a spatially autocorrelated
time-constant location effect plus a spatially autocorrelated idiosyncratic
innovation.

Replications use counter-based random streams keyed by (seed, replication),
so each replication's data is independent of how many others run and in
what order.  Geometry (centroids, hence the weight matrix) is drawn once
from its own stream and shared by all replications of a configuration.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .boosting import BoostConfig
from .crossval import FoldKind, _stream
from .errors import AlignmentError, ValidationError
from .linalg import SpatialFilter
from .panel import INTERCEPT_NAME, LAG_PREFIX, ModelSpec, PanelDataset, spatial_lag
from .pipeline import _coefficient_table, _fit_all
from .weights import SpatialWeights, build_knn_weights

METHODS = ("fgls", "ltb", "des")

DEFAULT_TRUE_COEFFICIENTS: Mapping[str, float] = {
    INTERCEPT_NAME: 1.0,
    "x1": 3.5,
    "x2": -2.5,
    LAG_PREFIX + "x1": -4.0,
    LAG_PREFIX + "x2": 3.0,
}

# uniform supports for the regressor components
LEVEL_HALF_WIDTH = 7.5
SHOCK_HALF_WIDTH = 5.0


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the simulated data generating process."""

    n_locations: int = 100
    n_periods: int = 5
    n_candidates: int = 40
    rho1: float = 0.0
    rho2: float = 0.0
    sigma_mu2: float = 10.0
    sigma_eps2: float = 10.0
    knn_k: int = 10
    seed: int = 0
    n_replications: int = 20
    true_coefficients: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TRUE_COEFFICIENTS)
    )

    def __post_init__(self):
        if self.n_locations < 2 or self.n_periods < 2:
            raise ValidationError("the DGP needs at least 2 locations and 2 periods")
        if self.n_candidates < 4 or self.n_candidates % 2 != 0:
            raise ValidationError(
                "n_candidates counts regressors plus their spatial lags and must "
                f"be an even number >= 4, got {self.n_candidates}"
            )
        for rho_name in ("rho1", "rho2"):
            rho = getattr(self, rho_name)
            if not np.isfinite(rho) or abs(rho) >= 1:
                raise ValidationError(f"{rho_name} must satisfy |rho| < 1, got {rho}")
        if not (0 <= self.sigma_mu2 < np.inf and 0 < self.sigma_eps2 < np.inf):
            raise ValidationError(
                "variances must be finite and non-negative (idiosyncratic positive)"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not (1 <= self.knn_k < self.n_locations):
            raise ValidationError("knn_k must be in [1, n_locations)")
        if self.n_replications < 1:
            raise ValidationError("n_replications must be positive")
        base = self.base_names
        valid = {INTERCEPT_NAME} | set(base) | {LAG_PREFIX + s for s in base}
        unknown = sorted(set(self.true_coefficients) - valid)
        if unknown:
            raise ValidationError(
                f"true coefficients name columns outside the candidate set: {unknown[:5]}"
            )
        object.__setattr__(self, "true_coefficients", dict(self.true_coefficients))

    @property
    def n_base_regressors(self) -> int:
        return self.n_candidates // 2

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(f"x{j + 1}" for j in range(self.n_base_regressors))

    def geometry(self) -> tuple[np.ndarray, SpatialWeights]:
        """Centroids and weights shared by every replication of this config."""
        rng = _stream(self.seed, 0)
        centroids = rng.uniform(0.0, 1.0, size=(self.n_locations, 2))
        return centroids, build_knn_weights(centroids, self.knn_k)

    def fold_seed(self, replication: int) -> int:
        return int(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(2, replication)
            ).generate_state(1)[0]
        )


def draw_location_effects(rng: np.random.Generator, n: int, sigma2: float) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(sigma2), size=n)


def draw_innovations(rng: np.random.Generator, n: int, t: int, sigma2: float) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(sigma2), size=(t, n))


def generate_panel(
    cfg: DgpConfig,
    replication: int,
    geometry: tuple[np.ndarray, SpatialWeights] | None = None,
) -> tuple[PanelDataset, SpatialWeights]:
    """One replication's panel.

    Draw order within the replication stream is fixed: regressor levels,
    regressor shocks, location effects, idiosyncratic innovations.
    Passing ``geometry`` (from ``cfg.geometry()``) avoids rebuilding the
    shared weight matrix for every replication.
    """
    if not (0 <= replication < cfg.n_replications):
        raise ValidationError(
            f"replication must be in [0, {cfg.n_replications}), got {replication}"
        )
    centroids, weights = geometry if geometry is not None else cfg.geometry()
    n, t, p = cfg.n_locations, cfg.n_periods, cfg.n_base_regressors
    rng = _stream(cfg.seed, 1, replication)

    level = rng.uniform(-LEVEL_HALF_WIDTH, LEVEL_HALF_WIDTH, size=(n, p))
    shock = rng.uniform(-SHOCK_HALF_WIDTH, SHOCK_HALF_WIDTH, size=(t, n, p))
    x = (level[None, :, :] + shock).reshape(n * t, p)

    mu = draw_location_effects(rng, n, cfg.sigma_mu2)
    eps = draw_innovations(rng, n, t, cfg.sigma_eps2)
    u_loc = SpatialFilter(cfg.rho1, weights).solve(mu)
    u_idio = SpatialFilter(cfg.rho2, weights).solve(eps.reshape(-1), n_periods=t)
    noise = np.tile(u_loc, t) + u_idio

    # spatial lags per period, used only to build the response
    lag = spatial_lag(x, weights, t)
    base_index = {s: j for j, s in enumerate(cfg.base_names)}
    eta = np.zeros(n * t)
    for name, coef in cfg.true_coefficients.items():
        if name == INTERCEPT_NAME:
            eta += coef
        elif name.startswith(LAG_PREFIX):
            eta += coef * lag[:, base_index[name[len(LAG_PREFIX):]]]
        else:
            eta += coef * x[:, base_index[name]]

    data = PanelDataset(
        response=eta + noise,
        regressors=x,
        regressor_names=cfg.base_names,
        location_ids=tuple(str(i) for i in range(n)),
        period_ids=tuple(str(s) for s in range(t)),
        centroids=centroids,
    )
    return data, weights


def evaluate_selection(
    coefficients: np.ndarray,
    names: Sequence[str],
    true_coefficients: Mapping[str, float],
) -> tuple[float, float]:
    """True positive and true negative rates of a coefficient vector.

    A candidate counts as selected when its coefficient is nonzero.  The
    intercept is excluded from both rates.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if len(names) != coefficients.shape[0]:
        raise AlignmentError("one coefficient per name is required")
    informative = {
        s for s, val in true_coefficients.items() if s != INTERCEPT_NAME and val != 0.0
    }
    missing = informative - set(names)
    if missing:
        raise AlignmentError(
            f"informative columns missing from the candidate set: {sorted(missing)[:5]}"
        )
    hits = 0
    rejections = 0
    n_noise = 0
    for name, coef in zip(names, coefficients):
        if name == INTERCEPT_NAME:
            continue
        if name in informative:
            hits += coef != 0.0
        else:
            n_noise += 1
            rejections += coef == 0.0
    tpr = hits / len(informative) if informative else float("nan")
    tnr = rejections / n_noise if n_noise else float("nan")
    return float(tpr), float(tnr)


def evaluate_mse(
    coefficients: np.ndarray,
    names: Sequence[str],
    true_coefficients: Mapping[str, float],
) -> float:
    """Mean squared coefficient error over all non-intercept candidates.

    Unselected candidates contribute their true value squared (zero for
    noise columns); averaging this quantity across replications gives the
    reported estimation error of a method.  With one coefficient off by 0.2
    out of 40 candidates the value is 0.2**2 / 40 = 0.001.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if len(names) != coefficients.shape[0]:
        raise AlignmentError("one coefficient per name is required")
    total = 0.0
    count = 0
    for name, coef in zip(names, coefficients):
        if name == INTERCEPT_NAME:
            continue
        total += (coef - true_coefficients.get(name, 0.0)) ** 2
        count += 1
    if count == 0:
        raise AlignmentError("no non-intercept candidates to score")
    return float(total / count)


@dataclass(frozen=True)
class MethodMetrics:
    method: str
    available: bool
    tpr: float | None = None
    tnr: float | None = None
    mse: float | None = None
    unavailable_reason: str | None = None


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregated Monte Carlo comparison, one row per method."""

    config: DgpConfig
    spec: ModelSpec
    methods: tuple[str, ...]
    per_method: dict[str, MethodMetrics]
    per_replication: tuple[dict, ...]
    n_replications: int


def _worker_count(workers: int, n_replications: int, n_cpus: int) -> int:
    """``workers``, at most one per replication and per processor."""
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    return min(workers, n_replications, n_cpus)


def _fit_rows(cfg, geometry, methods, spec, boost_config, n_folds, deselect_threshold, replications):
    """Fit ``replications`` by one ``_fit_all`` call and score each fit where
    it is made: ``({method: (tpr, tnr, squared_error)}, reason)``, with a
    score for each of ``methods`` the fit ran (``pipeline._coefficient_table``)
    and ``reason`` why the benchmark is unavailable, or None."""
    panels = ((*generate_panel(cfg, r, geometry=geometry), cfg.fold_seed(r)) for r in replications)
    des = deselect_threshold if "des" in methods else None
    fits = _fit_all(panels, spec, boost_config, FoldKind.SPATIAL, n_folds, des, "fgls" in methods)
    truth = cfg.true_coefficients
    return [
        ({m: (*evaluate_selection(c, fr.names, truth), evaluate_mse(c, fr.names, truth))
          for m, c in _coefficient_table(fr).items() if m in methods},
         fr.baseline_unavailable_reason)
        for fr in fits
    ]


_worker_fit_rows = None  # set in each forked worker by _bind_worker


def _bind_worker(fit_rows) -> None:
    global _worker_fit_rows
    _worker_fit_rows = fit_rows


def _fit_chunk(replications):
    """In a worker: the rows of ``replications`` and every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _worker_fit_rows(replications)
    return rows, [(w.message, w.filename, w.lineno) for w in caught]


def _reemit(caught) -> None:
    """Issue a worker's warnings from the module and line that raised them,
    so that this process's filters and registries decide what shows."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        # never None: warn_explicit drops a warning whose module is None
        name = filename.removesuffix(".py") if module is None else module.__name__
        warnings.warn_explicit(message, type(message), filename, lineno, name, registry)


def _forked_rows(fit_rows, replications: range, workers: int) -> list:
    """``fit_rows`` of ``replications``, one strided chunk of them per forked
    worker.  A chunk's moment systems and CV folds are solved in lockstep,
    which pays more the more replications it holds: for 20 replications at
    the default sizes with rho = (0.4, -0.4) on a 2-vCPU x86_64 host, 1, 2
    and 4 chunks per worker took a median 0.80, 0.89 and 0.99 s at seed 0
    and 0.76, 0.79 and 0.85 s at seed 20261017, so the loads that one chunk
    per worker leaves uneven cost less than smaller lockstep groups do.
    Only indices and rows are pickled: ``fit_rows`` reaches the workers by
    fork, and so does ``scipy.linalg``, which every worker's panels are
    drawn through: it is loaded here, once a process, where each call's
    workers would otherwise import it anew.  In a process that ran the
    setting above six times, each worker spent 0.43-0.53 s of CPU on its
    chunk without it and 0.29-0.32 s with it."""
    import multiprocessing

    import scipy.linalg  # noqa: F401

    chunks = [replications[c::workers] for c in range(workers)]
    rows = {}
    with multiprocessing.get_context("fork").Pool(workers, _bind_worker, (fit_rows,)) as pool:
        for chunk, (chunk_rows, caught) in zip(chunks, pool.imap(_fit_chunk, chunks)):
            _reemit(caught)
            rows.update(zip(chunk, chunk_rows))
    return [rows[r] for r in replications]


def run_experiment(
    cfg: DgpConfig,
    methods: Sequence[str] = METHODS,
    spec: ModelSpec | None = None,
    boost_config: BoostConfig = BoostConfig(),
    n_folds: int = 5,
    deselect_threshold: float = 0.01,
    workers: int = 1,
) -> SimulationMetrics:
    """Run all replications of a configuration and aggregate the metrics.

    Each fit is scored where it is made; the scores are averaged over
    replications per method and listed in ``per_replication`` method by method.
    A method that is infeasible on this design (least squares with more
    candidates than observations) is reported as unavailable rather than
    failing the experiment.  Before any fit, ``ValidationError`` refuses an
    empty or repeated method list, and candidates that are all informative
    or all noise, which leave a selection rate undefined.

    The replications are fitted by one ``pipeline._fit_all`` call, in its
    stages: all are generated and their moment systems built, the free
    systems of all of them are solved in one lockstep, each is whitened,
    the cross-validation folds of all of them are boosted together, then
    each final fit is made.  Every fit equals ``fit_model`` on its
    replication bit for bit; only the order of warnings and errors differs
    from a loop of ``fit_model``: stage by stage, each stage in replication
    order, and an error is raised where its stage reaches it.

    ``workers`` > 1 forks that many processes, at most one per replication
    and processor (none without ``os.sched_getaffinity``), each fitting one
    strided chunk of the replications by one ``_fit_all`` call; the
    metrics keep their bits.  Warnings keep their text and count but come
    chunk by chunk, in chunk order, each chunk's in the stage order of its
    ``_fit_all``; the first failing chunk in that order raises its error
    here.
    """
    methods = tuple(methods)
    unknown = [s for s in methods if s not in METHODS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}; choose from {METHODS}")
    if not methods or len(set(methods)) < len(methods):
        raise ValidationError(f"methods must be non-empty and distinct, got {list(methods)}")
    informative = [s for s, v in cfg.true_coefficients.items() if s != INTERCEPT_NAME and v != 0]
    if len(informative) in (0, cfg.n_candidates):
        raise ValidationError(
            f"n_candidates={cfg.n_candidates} with {len(informative)} informative columns "
            "leaves the true positive or true negative rate undefined"
        )
    if spec is None:
        spec = ModelSpec()
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = _worker_count(workers, cfg.n_replications, n_cpus)
    fit_rows = functools.partial(
        _fit_rows, cfg, cfg.geometry(), methods, spec, boost_config, n_folds, deselect_threshold
    )
    replications = range(cfg.n_replications)
    rows = fit_rows(replications) if workers == 1 else _forked_rows(fit_rows, replications, workers)

    details: list[dict] = []
    per_method: dict[str, MethodMetrics] = {}
    reason = next((reason for _, reason in rows if reason is not None), None)
    for method in methods:
        if method == "fgls" and reason is not None:
            per_method[method] = MethodMetrics(method, False, unavailable_reason=reason)
            continue
        scores = [row_scores[method] for row_scores, _ in rows]
        details.extend(
            {"replication": r, "method": method, "tpr": tpr, "tnr": tnr, "squared_error": se}
            for r, (tpr, tnr, se) in enumerate(scores)
        )
        means = (float(column.mean()) for column in np.asarray(scores).T)
        per_method[method] = MethodMetrics(method, True, *means)
    return SimulationMetrics(
        config=cfg,
        spec=spec,
        methods=methods,
        per_method=per_method,
        per_replication=tuple(details),
        n_replications=cfg.n_replications,
    )
