"""What an op produced, read back from its report files, and how it is judged.

An outcome holds the fields that must not change when only speed changes:
the stopping iteration, the selection path, the retained set, the whitener
fingerprint, the coefficients and, for ``simulate``, the per-method rates
and errors.  It also holds the SHA-256 of the main CSV so byte drift shows
next to the timings.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from spboost import evaluate_mse, evaluate_selection

# coefficients and simulated errors may differ from a recorded reference by
# this much relative to max(1, |reference|): well above the rounding a
# reordered sum introduces, well below anything that changes a selection
COEF_RTOL = 1e-9

MAIN_CSV = {"fit": "coefficients.csv", "simulate": "metrics.csv"}
REPORT_JSON = {"fit": "report.json", "simulate": "metrics.json"}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_outcome(command: str, out_dir: str) -> dict:
    with open(os.path.join(out_dir, REPORT_JSON[command])) as fh:
        report = json.load(fh)
    main_csv = os.path.join(out_dir, MAIN_CSV[command])
    out = {"command": command, "sha256": _sha256(main_csv)}
    if command == "simulate":
        out["methods"] = {
            name: {key: m[key] for key in ("available", "tpr", "tnr", "mse")}
            for name, m in report["methods"].items()
        }
        return out
    out["transform_fingerprint"] = report["transform_fingerprint"]
    out["variance_components"] = report["variance_components"]
    cv = report["cross_validation"]
    out.update(
        m_opt=cv["m_opt"],
        n_folds=cv["n_folds"],
        selection_path=report["boosting"]["selection_path"],
        retained=report.get("deselection", {}).get("retained"),
        baseline_available=report["baseline"]["available"],
    )
    with open(main_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out["names"] = [r["name"] for r in rows]
    out["coefficients"] = {
        method: [float(r[method]) for r in rows] for method in ("ltb", "des", "fgls") if method in rows[0]
    }
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=COEF_RTOL * max(1.0, abs(b)))


def mismatches(got: dict, ref: dict, exact: bool) -> list:
    """Differences of ``got`` from ``ref``; ``exact`` also demands equal bytes.

    Exact fields (stopping iteration, selection path, retained set,
    fingerprint, selection rates) must always be equal; coefficients, moment
    estimates and simulated errors must agree within ``COEF_RTOL``.
    """
    bad = []
    for key in ("m_opt", "n_folds", "selection_path", "retained", "transform_fingerprint",
                "baseline_available", "names"):
        if key in ref and got.get(key) != ref[key]:
            bad.append(key)
    for method, values in ref.get("coefficients", {}).items():
        other = got.get("coefficients", {}).get(method)
        if other is None or len(other) != len(values) or not all(map(_close, other, values)):
            bad.append(f"coefficients.{method}")
    for key, value in ref.get("variance_components", {}).items():
        other = got.get("variance_components", {}).get(key)
        if isinstance(value, float) and isinstance(other, float):
            if not _close(other, value):
                bad.append(f"variance_components.{key}")
        elif other != value:
            bad.append(f"variance_components.{key}")
    for method, m in ref.get("methods", {}).items():
        g = got.get("methods", {}).get(method, {})
        if g.get("available") != m["available"] or g.get("tpr") != m["tpr"] or g.get("tnr") != m["tnr"]:
            bad.append(f"methods.{method}")
        elif m["mse"] is not None and (g.get("mse") is None or not _close(g["mse"], m["mse"])):
            bad.append(f"methods.{method}.mse")
    if exact and got["sha256"] != ref["sha256"]:
        bad.append("sha256")
    return bad


def quality(outcome: dict, true_coefficients: dict) -> dict | None:
    """ltb/des estimation error and des selection rates against the DGP truth."""
    if outcome["command"] == "simulate":
        m = outcome["methods"]
        return {
            "ltb_mse": m["ltb"]["mse"],
            "des_mse": m["des"]["mse"],
            "des_tpr": m["des"]["tpr"],
            "des_tnr": m["des"]["tnr"],
        }
    names = outcome["names"]
    coefs = outcome["coefficients"]
    des_tpr, des_tnr = evaluate_selection(coefs["des"], names, true_coefficients)
    return {
        "ltb_mse": evaluate_mse(coefs["ltb"], names, true_coefficients),
        "des_mse": evaluate_mse(coefs["des"], names, true_coefficients),
        "des_tpr": des_tpr,
        "des_tnr": des_tnr,
    }
