"""Command line interface.

Four subcommands: ``fit`` estimates a model on a panel CSV, ``cv`` reports
the cross-validated risk curve and stopping iteration, ``transform`` writes
the whitened data, and ``simulate`` runs the Monte Carlo harness.  Exit
codes: 0 success, 2 invalid inputs or options, 3 numerical estimation
failure, 4 file I/O failure.  Warnings show on stderr as
``spboost: warning: <message>`` lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
import warnings

from . import __version__
from .boosting import BoostConfig
from .crossval import FoldKind, boost_cv_curve, choose_stopping_iteration
from .errors import EstimationError, ValidationError
from .panel import ModelSpec, read_panel_csv
from .pipeline import _prepare_all, build_fold_plan, fit_model, standardize_regressors
from .report import (
    components_payload,
    cross_validation_payload,
    file_sha256,
    fit_payload,
    metrics_payload,
    tool_stamp,
    write_csv,
    write_cv_curve,
    write_fit_reports,
    write_json,
    write_metrics_reports,
)
from .simulate import METHODS, DgpConfig, run_experiment
from .weights import build_knn_weights, read_centroid_csv, read_neighbor_csv, row_normalize

def _add_ingestion_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--panel", required=True, help="long-format panel CSV (location,period,y,...)")
    p.add_argument("--weights", help="neighbour-list weight CSV (from,to,weight)")
    p.add_argument(
        "--centroids", help="centroid CSV (location,cx,cy) for spatial folds, and with --knn weights"
    )
    p.add_argument("--knn", type=int, help="number of nearest neighbours for --centroids")
    p.add_argument(
        "--row-normalize",
        action="store_true",
        help="row-normalize a neighbour-list weight matrix after loading",
    )


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["ans", "kkp", "gspecm"], default="gspecm")
    p.add_argument("--effects", choices=["random", "fixed"], default="random")
    p.add_argument("--no-intercept", action="store_true", help="drop the intercept column")
    p.add_argument("--no-spatial-lags", action="store_true", help="drop the spatial lag block")
    p.add_argument(
        "--standardize",
        action="store_true",
        help="center and scale raw regressors before building the design",
    )


def _add_boost_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--mstop-budget", type=int, default=1000, help="boosting iteration budget")


def _add_cv_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cv", choices=["spatial", "time"], default="spatial")
    p.add_argument("--folds", type=int, default=5, help="spatial fold count (time CV uses one per period)")
    p.add_argument("--seed", type=int, default=0)


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, help="directory for the JSON/CSV reports")
    p.add_argument("--threads", type=int, default=1, help="simulate's worker processes; others ignore it")


def _add_panel_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subcommand reading a panel, with the option groups fit, cv and transform share."""
    p = sub.add_parser(name, help=help_text)
    for add in (_add_ingestion_options, _add_model_options, _add_boost_options, _add_cv_options):
        add(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spboost",
        description="Boosted estimation for spatial panels with error components",
    )
    parser.add_argument("--version", action="version", version=f"spboost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = _add_panel_parser(sub, "fit", "estimate a model on a panel")
    p_fit.add_argument("--tau", type=float, default=0.01, help="deselection threshold")
    p_fit.add_argument("--no-deselect", action="store_true", help="skip deselection")
    p_fit.add_argument("--baseline", action="store_true", help="add the least-squares benchmark")
    _add_common_output(p_fit)

    for name, help_text in (
        ("cv", "cross-validated risk curve and stopping iteration"),
        ("transform", "write the whitened response and design"),
    ):
        _add_common_output(_add_panel_parser(sub, name, help_text))

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    p_sim.add_argument("--n", type=int, default=100, help="locations")
    p_sim.add_argument("--t", type=int, default=5, help="periods")
    p_sim.add_argument("--k", type=int, default=40, help="candidate columns (regressors plus lags)")
    p_sim.add_argument("--rho1", type=float, default=0.0)
    p_sim.add_argument("--rho2", type=float, default=0.0)
    p_sim.add_argument("--sigma-mu2", type=float, default=10.0)
    p_sim.add_argument("--sigma-eps2", type=float, default=10.0)
    p_sim.add_argument("--nsim", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--knn", type=int, default=10)
    p_sim.add_argument("--effects", choices=["random", "fixed"], default="random")
    p_sim.add_argument("--family", choices=["ans", "kkp", "gspecm"], default="gspecm")
    methods = ",".join(METHODS)
    p_sim.add_argument("--methods", default=methods, help=f"comma-separated subset of {methods}")
    p_sim.add_argument("--folds", type=int, default=5)
    p_sim.add_argument("--tau", type=float, default=0.01)
    _add_boost_options(p_sim)
    _add_common_output(p_sim)
    return parser


def _load_inputs(args):
    """Panel, weights, provenance block, model spec and boosting config.

    The set-up shared by fit, cv and transform, ``--standardize`` included.
    """
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    if args.knn is not None and args.weights is not None:
        raise ValidationError("--knn cannot be combined with --weights")
    if args.knn is not None and args.centroids is None:
        raise ValidationError("--knn requires --centroids")
    if args.row_normalize and args.weights is None:
        raise ValidationError("--row-normalize requires --weights")
    if args.knn is None and args.weights is None:
        raise ValidationError("spatial weights need --weights, or --centroids with --knn")
    data = read_panel_csv(args.panel)
    inputs = {"panel": {"path": args.panel, "sha256": file_sha256(args.panel)}}
    if args.centroids is not None:
        _, pts = read_centroid_csv(args.centroids, list(data.location_ids))
        data = dataclasses.replace(data, centroids=pts)
        inputs["centroids"] = {"path": args.centroids, "sha256": file_sha256(args.centroids)}
    if args.weights is None:
        weights = build_knn_weights(data.centroids, args.knn)
        inputs["centroids"]["knn"] = args.knn
    else:
        weights = read_neighbor_csv(args.weights, list(data.location_ids))
        if args.row_normalize:
            weights = row_normalize(weights)
        inputs["weights"] = {
            "path": args.weights,
            "sha256": file_sha256(args.weights),
            "row_normalized": bool(args.row_normalize),
        }
    if args.standardize:
        data = standardize_regressors(data)
    spec = ModelSpec(
        family=args.family,
        effects=args.effects,
        include_spatial_lags=not args.no_spatial_lags,
        include_intercept=not args.no_intercept,
    )
    config = BoostConfig(learning_rate=args.learning_rate, m_stop=args.mstop_budget)
    return data, weights, inputs, spec, config


def _write_report(args, name: str, start: float, body: dict) -> None:
    """Write JSON report ``name``: ``body`` inside the envelope every subcommand shares.

    ``parameters`` echoes every parsed flag but the subcommand's name.
    """
    os.makedirs(args.out_dir, exist_ok=True)
    payload = {
        "tool": tool_stamp(),
        "command": args.command,
        "seed": args.seed,
        "parameters": {key: val for key, val in sorted(vars(args).items()) if key != "command"},
        **body,
        "timing_seconds": time.perf_counter() - start,
    }
    write_json(os.path.join(args.out_dir, name), payload)


def cmd_fit(args, start: float) -> int:
    data, weights, inputs, spec, config = _load_inputs(args)
    result = fit_model(
        data,
        weights,
        spec,
        config=config,
        cv_kind=FoldKind(args.cv),
        n_folds=args.folds,
        seed=args.seed,
        deselect_threshold=None if args.no_deselect else args.tau,
        baseline=args.baseline,
    )
    _write_report(args, "report.json", start, {"inputs": inputs, **fit_payload(result)})
    write_fit_reports(args.out_dir, result)
    return 0


def cmd_cv(args, start: float) -> int:
    data, weights, inputs, spec, config = _load_inputs(args)
    plan = build_fold_plan(data, FoldKind(args.cv), args.folds, args.seed)
    _, _, td = _prepare_all([(data, weights, plan)], spec, config)[0]
    curve = boost_cv_curve(td.response, td.design, plan, config)
    m_opt = choose_stopping_iteration(curve)
    _write_report(
        args,
        "cv.json",
        start,
        {
            "inputs": inputs,
            "cross_validation": cross_validation_payload(plan, m_opt, curve),
        },
    )
    write_cv_curve(args.out_dir, curve)
    return 0


def cmd_transform(args, start: float) -> int:
    data, weights, inputs, spec, config = _load_inputs(args)
    # fit's fold plan, so that boosted preliminary residuals whiten alike;
    # built only on that route, since least-squares residuals need none
    plan = functools.partial(build_fold_plan, data, FoldKind(args.cv), args.folds, args.seed)
    _, components, td = _prepare_all([(data, weights, plan)], spec, config)[0]
    _write_report(
        args,
        "transform.json",
        start,
        {
            "inputs": inputs,
            "variance_components": components_payload(components),
            "transform_fingerprint": td.fingerprint,
        },
    )
    # rows are period-major: every location of the first period, then the next
    labels = [(loc, per) for per in data.period_ids for loc in data.location_ids]
    write_csv(
        os.path.join(args.out_dir, "transformed.csv"),
        ["location", "period", "y_star", *td.names],
        [
            [loc, per, y, *z]
            for (loc, per), y, z in zip(labels, td.response.tolist(), td.design.tolist())
        ],
    )
    return 0


def cmd_simulate(args, start: float) -> int:
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    cfg = DgpConfig(
        n_locations=args.n,
        n_periods=args.t,
        n_candidates=args.k,
        rho1=args.rho1,
        rho2=args.rho2,
        sigma_mu2=args.sigma_mu2,
        sigma_eps2=args.sigma_eps2,
        knn_k=args.knn,
        seed=args.seed,
        n_replications=args.nsim,
    )
    spec = ModelSpec(
        family=args.family,
        effects=args.effects,
        include_spatial_lags=True,
        include_intercept=args.effects == "random",
    )
    config = BoostConfig(learning_rate=args.learning_rate, m_stop=args.mstop_budget)
    metrics = run_experiment(
        cfg,
        methods=methods,
        spec=spec,
        boost_config=config,
        n_folds=args.folds,
        deselect_threshold=args.tau,
        workers=args.threads,
    )
    _write_report(args, "metrics.json", start, metrics_payload(metrics))
    write_metrics_reports(args.out_dir, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": cmd_fit,
        "cv": cmd_cv,
        "transform": cmd_transform,
        "simulate": cmd_simulate,
    }
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"spboost: warning: {message}\n"
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        return handlers[args.command](args, time.perf_counter())
    except ValidationError as exc:
        print(f"spboost: invalid input: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"spboost: estimation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"spboost: i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
