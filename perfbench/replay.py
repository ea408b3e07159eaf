"""Stage-by-stage replay of a spboost subcommand through its public functions.

``replay(argv, tracer)`` does what ``spboost.cli.main(argv)`` does for the
benchmark's ops (``fit`` and ``simulate`` with centroid input), but calls
each layer itself and wraps every call in a span.  It writes the same
report files, so its outputs can be compared with the command's byte for
byte; a replay that stops matching the command is a benchmark defect and
the run fails.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from spboost import (
    BoostConfig,
    DgpConfig,
    Effects,
    Family,
    FitResult,
    FoldKind,
    MethodMetrics,
    ModelSpec,
    RankError,
    SimulationMetrics,
    VarianceComponents,
    augment_design,
    boost,
    boost_cv_curve,
    build_fold_plan,
    build_knn_weights,
    choose_stopping_iteration,
    deselect,
    evaluate_mse,
    evaluate_selection,
    fgls_baseline,
    fixed_effects_whitener,
    generate_panel,
    idiosyncratic_moment_system,
    initial_residuals,
    location_effect_moment_system,
    random_effects_whitener,
    read_centroid_csv,
    read_panel_csv,
    solve_moment_system,
    transform_fixed,
    transform_random,
)
from spboost.cli import build_parser
from spboost.errors import EstimationFailureError
from spboost.report import (
    components_payload,
    file_sha256,
    fit_payload,
    metrics_payload,
    tool_stamp,
    write_fit_reports,
    write_json,
    write_metrics_reports,
)


class ReplayMismatch(RuntimeError):
    """The replay no longer reproduces the command it mirrors."""


def replay(argv: list, tracer) -> None:
    args = build_parser().parse_args(argv)
    if getattr(args, "weights", None) or getattr(args, "standardize", False):
        raise ReplayMismatch("the replay mirrors centroid input without --standardize only")
    start = time.time()
    {"fit": _fit, "simulate": _simulate}[args.command](
        args, tracer, start
    )


def _flags_echo(args) -> dict:
    return {key: val for key, val in sorted(vars(args).items()) if key != "command"}


def _boost_config(args) -> BoostConfig:
    return BoostConfig(learning_rate=args.learning_rate, m_stop=args.mstop_budget)


def _model_spec(args) -> ModelSpec:
    return ModelSpec(
        family=args.family,
        effects=args.effects,
        include_spatial_lags=not args.no_spatial_lags,
        include_intercept=not args.no_intercept,
    )


def _load_inputs(args, tr):
    with tr.span("panel.read"):
        data = read_panel_csv(args.panel)
        inputs = {"panel": {"path": args.panel, "sha256": file_sha256(args.panel)}}
    with tr.span("weights.load"):
        _, pts = read_centroid_csv(args.centroids, list(data.location_ids))
        weights = build_knn_weights(pts, args.knn)
        data = dataclasses.replace(data, centroids=pts)
        inputs["centroids"] = {
            "path": args.centroids,
            "sha256": file_sha256(args.centroids),
            "knn": args.knn,
        }
    return data, weights, inputs


def _components(tr, data, design, weights, spec, config, cv_plan):
    """``estimate_variance_components`` split into its two stages."""
    with tr.span("gmm.prelim"):
        triple = initial_residuals(data, design, weights, config=config, cv_plan=cv_plan)
    with tr.span("gmm.moments"):
        t = data.n_periods
        eps = solve_moment_system(idiosyncratic_moment_system(triple, weights, t))
        sigma_eps2 = eps.sigma2
        if sigma_eps2 <= 0.0:
            if not eps.degenerate:
                raise EstimationFailureError(
                    "estimated idiosyncratic variance is zero on non-degenerate data",
                    candidate=(eps.rho, eps.sigma2),
                    residual_norm=eps.residual_norm,
                )
            sigma_eps2 = 1.0
        if spec.effects is Effects.FIXED:
            return VarianceComponents(
                rho2=eps.rho,
                sigma_eps2=sigma_eps2,
                family=spec.family,
                rho2_at_boundary=eps.rho_at_boundary,
            )
        mu_system = location_effect_moment_system(triple, weights, t)
        if spec.family is Family.ANS:
            mu, rho1 = solve_moment_system(mu_system, fixed_rho=0.0), 0.0
        elif spec.family is Family.KKP:
            mu, rho1 = solve_moment_system(mu_system, fixed_rho=eps.rho), eps.rho
        else:
            mu = solve_moment_system(mu_system)
            rho1 = mu.rho
        return VarianceComponents(
            rho2=eps.rho,
            sigma_eps2=sigma_eps2,
            rho1=rho1,
            sigma_mu2=mu.sigma2,
            family=spec.family,
            rho1_at_boundary=mu.rho_at_boundary,
            rho2_at_boundary=eps.rho_at_boundary,
        )


def _whiten(tr, data, design, weights, spec, components):
    t = data.n_periods
    if spec.effects is Effects.FIXED:
        with tr.span("linalg.whitener"):
            op = fixed_effects_whitener(components, weights, t)
        with tr.span("transform.apply"):
            return transform_fixed(data, design, op)
    with tr.span("linalg.whitener"):
        op = random_effects_whitener(components, weights, t)
    with tr.span("transform.apply"):
        return transform_random(data, design, op)


def _fit_stages(tr, data, weights, spec, config, cv_kind, n_folds, seed, tau, baseline):
    """``pipeline.fit_model`` one stage at a time."""
    with tr.span("panel.design"):
        design = augment_design(data, weights, spec)
    with tr.span("crossval.folds"):
        plan = build_fold_plan(data, cv_kind, n_folds, seed)
    tr.count("crossval.n_folds", plan.n_folds)
    components = _components(tr, data, design, weights, spec, config, plan)
    td = _whiten(tr, data, design, weights, spec, components)
    with tr.span("crossval.cv_curve"):
        curve = boost_cv_curve(td.response, td.design, plan, config)
        m_opt = choose_stopping_iteration(curve)
    tr.count("crossval.m_opt", m_opt)
    tr.count("crossval.m_stop", config.m_stop)
    with tr.span("boosting.final"):
        fit = boost(td, config, n_iterations=m_opt)
    des = None
    if tau is None:
        tr.absent("boosting.deselect")
    else:
        with tr.span("boosting.deselect"):
            des = deselect(td, config, fit, threshold=tau)
    fgls = unavailable = None
    if not baseline:
        tr.absent("boosting.baseline")
    else:
        with tr.span("boosting.baseline"):
            try:
                fgls = fgls_baseline(td)
            except RankError as exc:
                unavailable = str(exc)
    return FitResult(
        spec=spec,
        components=components,
        transformed=td,
        fold_plan=plan,
        cv_curve=curve,
        m_opt=m_opt,
        fit=fit,
        deselection=des,
        baseline=fgls,
        baseline_unavailable_reason=unavailable,
        names=design.names,
    )


def _count_bytes(tr, out_dir: str, names: tuple) -> None:
    tr.count("report.bytes", sum(os.path.getsize(os.path.join(out_dir, s)) for s in names))


def _fit(args, tr, start):
    tr.absent("simulate.generate")
    data, weights, inputs = _load_inputs(args, tr)
    result = _fit_stages(
        tr,
        data,
        weights,
        _model_spec(args),
        _boost_config(args),
        FoldKind(args.cv),
        args.folds,
        args.seed,
        None if args.no_deselect else args.tau,
        args.baseline,
    )
    with tr.span("report.write"):
        os.makedirs(args.out_dir, exist_ok=True)
        payload = {
            "tool": tool_stamp(),
            "command": "fit",
            "seed": args.seed,
            "parameters": _flags_echo(args),
            "inputs": inputs,
            **fit_payload(result),
            "timing_seconds": time.time() - start,
        }
        write_json(os.path.join(args.out_dir, "report.json"), payload)
        write_fit_reports(args.out_dir, result)
    _count_bytes(
        tr, args.out_dir, ("report.json", "coefficients.csv", "cv_curve.csv", "risk_path.csv")
    )


def _simulate(args, tr, start):
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
    config = _boost_config(args)
    tr.absent("panel.read", "weights.load")
    with tr.span("simulate.generate"):
        geometry = cfg.geometry()
    # replications run serially here, whatever --threads says
    fits = []
    for r in range(cfg.n_replications):
        with tr.span("simulate.generate"):
            data, weights = generate_panel(cfg, r, geometry=geometry)
        fits.append(
            _fit_stages(
                tr,
                data,
                weights,
                spec,
                config,
                FoldKind.SPATIAL,
                args.folds,
                cfg.fold_seed(r),
                args.tau if "des" in methods else None,
                "fgls" in methods,
            )
        )
    metrics = _aggregate(cfg, spec, methods, fits)
    with tr.span("report.write"):
        os.makedirs(args.out_dir, exist_ok=True)
        payload = {
            "tool": tool_stamp(),
            "command": "simulate",
            "seed": args.seed,
            "parameters": _flags_echo(args),
            **metrics_payload(metrics),
            "timing_seconds": time.time() - start,
        }
        write_json(os.path.join(args.out_dir, "metrics.json"), payload)
        write_metrics_reports(args.out_dir, metrics)
    _count_bytes(tr, args.out_dir, ("metrics.json", "metrics.csv", "replications.csv"))


def _aggregate(cfg, spec, methods, fits) -> SimulationMetrics:
    """The per-method averages ``run_experiment`` reports."""
    truth = cfg.true_coefficients
    details = []
    per_method = {}
    for method in methods:
        if method == "fgls" and any(fr.baseline is None for fr in fits):
            reason = next(fr.baseline_unavailable_reason for fr in fits if fr.baseline is None)
            per_method[method] = MethodMetrics(
                method=method, available=False, unavailable_reason=reason
            )
            continue
        rows = []
        for r, fr in enumerate(fits):
            coefs = fr.coefficients(method)
            tpr, tnr = evaluate_selection(coefs, fr.names, truth)
            se = evaluate_mse(coefs, fr.names, truth)
            rows.append((tpr, tnr, se))
            details.append(
                {"replication": r, "method": method, "tpr": tpr, "tnr": tnr, "squared_error": se}
            )
        arr = np.asarray(rows)
        per_method[method] = MethodMetrics(
            method=method,
            available=True,
            tpr=float(arr[:, 0].mean()),
            tnr=float(arr[:, 1].mean()),
            mse=float(arr[:, 2].mean()),
        )
    return SimulationMetrics(
        config=cfg,
        spec=spec,
        methods=methods,
        per_method=per_method,
        per_replication=tuple(details),
        n_replications=cfg.n_replications,
    )
