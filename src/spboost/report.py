"""Report assembly and serialization.

Reports are JSON documents plus CSV tables written into an output
directory.  Everything in them is a function of (input files, flags, seed,
package version); the only exception is the ``timing_seconds`` field of the
JSON report, which callers comparing runs should ignore.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .crossval import FoldPlan
from .gmm import VarianceComponents
from .pipeline import FitResult
from .simulate import SimulationMetrics


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def tool_stamp() -> dict:
    return {"name": "spboost", "version": __version__}


def components_payload(vc: VarianceComponents) -> dict:
    return {
        "family": vc.family.value,
        "rho1": None if vc.rho1 is None else float(vc.rho1),
        "rho2": float(vc.rho2),
        "sigma_mu2": None if vc.sigma_mu2 is None else float(vc.sigma_mu2),
        "sigma_eps2": float(vc.sigma_eps2),
        "rho1_at_boundary": vc.rho1_at_boundary,
        "rho2_at_boundary": vc.rho2_at_boundary,
    }


def cross_validation_payload(plan: FoldPlan, m_opt: int, curve: np.ndarray) -> dict:
    return {
        "kind": plan.kind.value,
        "n_folds": plan.n_folds,
        "m_opt": m_opt,
        "curve": [float(v) for v in curve],
    }


def fit_payload(result: FitResult) -> dict:
    """JSON-ready dict for a FitResult (no timing, no inputs)."""
    des = result.deselection
    payload = {
        "model": {
            "family": result.spec.family.value,
            "effects": result.spec.effects.value,
            "include_intercept": result.spec.include_intercept,
            "include_spatial_lags": result.spec.include_spatial_lags,
        },
        "variance_components": components_payload(result.components),
        "transform_fingerprint": result.transformed.fingerprint,
        "cross_validation": cross_validation_payload(
            result.fold_plan, result.m_opt, result.cv_curve
        ),
        "boosting": {
            "learning_rate": result.fit.learning_rate,
            "m_used": result.fit.m_used,
            "risk_path": [float(v) for v in result.fit.risk_path],
            "selection_path": [result.names[j] for j in result.fit.selection_path],
            "excluded_columns": list(result.fit.excluded),
        },
        "baseline": {
            "requested": result.baseline is not None
            or result.baseline_unavailable_reason is not None,
            "available": result.baseline is not None,
            "reason": result.baseline_unavailable_reason,
        },
    }
    if des is not None:
        payload["deselection"] = {
            "threshold": des.threshold,
            "total_reduction": float(des.total_reduction),
            "retained": list(des.retained),
            "attributable": {
                name: float(val) for name, val in zip(des.names, des.attributable)
            },
        }
    coeffs = []
    des_coefs = None if des is None else result.coefficients("des")
    for i, name in enumerate(result.names):
        row = {"name": name, "ltb": float(result.fit.coefficients[i])}
        if des_coefs is not None:
            row["des"] = float(des_coefs[i])
        if result.baseline is not None:
            row["fgls"] = float(result.baseline[i])
        coeffs.append(row)
    payload["coefficients"] = coeffs
    return payload


def metrics_payload(metrics: SimulationMetrics) -> dict:
    cfg = metrics.config
    return {
        "dgp": {
            "n_locations": cfg.n_locations,
            "n_periods": cfg.n_periods,
            "n_candidates": cfg.n_candidates,
            "rho1": cfg.rho1,
            "rho2": cfg.rho2,
            "sigma_mu2": cfg.sigma_mu2,
            "sigma_eps2": cfg.sigma_eps2,
            "knn_k": cfg.knn_k,
            "seed": cfg.seed,
            "n_replications": cfg.n_replications,
            "true_coefficients": dict(cfg.true_coefficients),
        },
        "model": {
            "family": metrics.spec.family.value,
            "effects": metrics.spec.effects.value,
        },
        "methods": {
            name: {
                "available": mm.available,
                "tpr": mm.tpr,
                "tnr": mm.tnr,
                "mse": mm.mse,
                "unavailable_reason": mm.unavailable_reason,
            }
            for name, mm in metrics.per_method.items()
        },
    }


def write_json(path: str, payload: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_fit_reports(out_dir: str, result: FitResult) -> None:
    """coefficients.csv, cv_curve.csv, and risk_path.csv for a fit."""
    des_coefs = None if result.deselection is None else result.coefficients("des")
    header = ["name", "ltb", "selected_ltb"]
    if des_coefs is not None:
        header += ["des", "selected_des"]
    if result.baseline is not None:
        header += ["fgls"]
    rows = []
    for i, name in enumerate(result.names):
        row = [name, float(result.fit.coefficients[i]), int(result.fit.coefficients[i] != 0)]
        if des_coefs is not None:
            row += [float(des_coefs[i]), int(des_coefs[i] != 0)]
        if result.baseline is not None:
            row += [float(result.baseline[i])]
        rows.append(row)
    write_csv(os.path.join(out_dir, "coefficients.csv"), header, rows)
    write_cv_curve(out_dir, result.cv_curve)
    write_csv(
        os.path.join(out_dir, "risk_path.csv"),
        ["m", "risk"],
        [(m, float(v)) for m, v in enumerate(result.fit.risk_path)],
    )


def write_cv_curve(out_dir: str, curve: np.ndarray) -> None:
    write_csv(
        os.path.join(out_dir, "cv_curve.csv"),
        ["m", "cv_risk"],
        [(m, float(v)) for m, v in enumerate(curve)],
    )


def write_metrics_reports(out_dir: str, metrics: SimulationMetrics) -> None:
    """metrics.csv and replications.csv for a simulation."""
    rows = []
    for name in metrics.methods:
        mm = metrics.per_method[name]
        rows.append(
            [
                name,
                int(mm.available),
                mm.tpr if mm.available else None,
                mm.tnr if mm.available else None,
                mm.mse if mm.available else None,
            ]
        )
    write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["method", "available", "tpr", "tnr", "mse"],
        rows,
    )
    write_csv(
        os.path.join(out_dir, "replications.csv"),
        ["replication", "method", "tpr", "tnr", "squared_error"],
        [
            [d["replication"], d["method"], d["tpr"], d["tnr"], d["squared_error"]]
            for d in metrics.per_replication
        ],
    )
