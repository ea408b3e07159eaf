"""Report assembly and serialization.

Reports are JSON documents plus CSV tables written into an output
directory.  Everything in them is a function of (input files, flags, seed,
package version); the only exception is the ``timing_seconds`` field of the
JSON report, which callers comparing runs should ignore.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import json
import os
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .crossval import FoldPlan
from .gmm import VarianceComponents
from .pipeline import FitResult, _coefficient_table
from .simulate import SimulationMetrics


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def tool_stamp() -> dict:
    return {"name": "spboost", "version": __version__}


def _fields(record, omit: tuple[str, ...] = ()) -> dict:
    """A record's fields by name, enums as their values, ``omit`` left out."""
    return {
        name: value.value if isinstance(value, enum.Enum) else value
        for name, value in dataclasses.asdict(record).items()
        if name not in omit
    }


def components_payload(vc: VarianceComponents) -> dict:
    return _fields(vc)


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
    table = _coefficient_table(result)
    payload = {
        "model": _fields(result.spec),
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
        "coefficients": [
            {"name": name, **{m: float(c[i]) for m, c in table.items()}}
            for i, name in enumerate(result.names)
        ],
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
    return payload


def metrics_payload(metrics: SimulationMetrics) -> dict:
    return {
        "dgp": _fields(metrics.config),
        "model": {
            "family": metrics.spec.family.value,
            "effects": metrics.spec.effects.value,
        },
        "methods": {
            name: _fields(mm, omit=("method",)) for name, mm in metrics.per_method.items()
        },
    }


def write_json(path: str, payload: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def write_fit_reports(out_dir: str, result: FitResult) -> None:
    """coefficients.csv, cv_curve.csv, and risk_path.csv for a fit."""
    columns = {"name": result.names}
    for m, c in _coefficient_table(result).items():
        columns[m] = c.tolist()
        if m != "fgls":
            columns[f"selected_{m}"] = (c != 0).astype(int).tolist()
    write_csv(
        os.path.join(out_dir, "coefficients.csv"), list(columns), list(zip(*columns.values()))
    )
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
    write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["method", "available", "tpr", "tnr", "mse"],
        [
            [name, int(mm.available), mm.tpr, mm.tnr, mm.mse]
            for name, mm in metrics.per_method.items()
        ],
    )
    header = ["replication", "method", "tpr", "tnr", "squared_error"]
    write_csv(
        os.path.join(out_dir, "replications.csv"),
        header,
        [[d[key] for key in header] for d in metrics.per_replication],
    )
