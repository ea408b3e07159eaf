"""End-to-end command line behavior: reports, determinism, exit codes."""

import csv
import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spboost.gmm
import spboost.pipeline
import spboost.simulate
from spboost import __version__
from spboost.boosting import BoostConfig
from spboost.cli import build_parser, main
from spboost.crossval import FoldKind
from spboost.errors import ConditioningError
from spboost.gmm import OLS_DIMENSION_RATIO
from spboost.panel import ModelSpec, read_panel_csv, write_panel_csv
from spboost.pipeline import build_fold_plan, prepare
from spboost.report import write_csv
from spboost.simulate import DgpConfig, generate_panel
from spboost.weights import build_knn_weights, read_centroid_csv


def write_centroid_csv(path, data):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "cx", "cy"])
        for loc, (cx, cy) in zip(data.location_ids, data.centroids):
            writer.writerow([loc, repr(float(cx)), repr(float(cy))])


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory):
    """A small simulated panel exported to CSV, with centroids."""
    root = tmp_path_factory.mktemp("cli_inputs")
    cfg = DgpConfig(
        n_locations=25,
        n_periods=3,
        n_candidates=6,
        rho1=0.0,
        rho2=0.4,
        knn_k=3,
        seed=11,
        n_replications=1,
    )
    data, _ = generate_panel(cfg, 0)
    panel = root / "panel.csv"
    centroids = root / "centroids.csv"
    write_panel_csv(panel, data)
    write_centroid_csv(centroids, data)
    return str(panel), str(centroids)


def fit_args(panel, centroids, out_dir, *extra):
    return [
        "fit",
        "--panel",
        panel,
        "--centroids",
        centroids,
        "--knn",
        "3",
        "--folds",
        "2",
        "--mstop-budget",
        "150",
        "--seed",
        "4",
        "--out-dir",
        str(out_dir),
        *extra,
    ]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_reports_and_recovers_sign(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "fit"
    assert main(fit_args(panel, centroids, out, "--baseline")) == 0
    for name in ("report.json", "coefficients.csv", "cv_curve.csv", "risk_path.csv"):
        assert (out / name).exists()
    report = load_json(out / "report.json")
    assert report["command"] == "fit"
    components = report["variance_components"]
    assert components["rho2"] > 0  # generated with positive autocorrelation
    assert components["sigma_eps2"] > 0
    assert report["baseline"]["available"]
    names = [row["name"] for row in report["coefficients"]]
    assert "intercept" in names and "x1" in names and "W_x1" in names
    with open(out / "coefficients.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["name", "ltb", "selected_ltb", "des", "selected_des", "fgls"]


def test_fit_reports_are_deterministic(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "rerun"
    assert main(fit_args(panel, centroids, out)) == 0
    first_coefs = (out / "coefficients.csv").read_bytes()
    shutil.copy(out / "report.json", tmp_path / "report_first.json")
    assert main(fit_args(panel, centroids, out)) == 0

    a = load_json(tmp_path / "report_first.json")
    b = load_json(out / "report.json")
    # the JSON may differ only in the timing field
    differing = {
        key
        for key in a.keys() | b.keys()
        if json.dumps(a.get(key), sort_keys=True) != json.dumps(b.get(key), sort_keys=True)
    }
    assert differing <= {"timing_seconds"}
    assert (out / "coefficients.csv").read_bytes() == first_coefs


def test_fit_ans_family_reports_zero_rho1(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "ans"
    assert main(fit_args(panel, centroids, out, "--family", "ans")) == 0
    report = load_json(out / "report.json")
    assert report["variance_components"]["rho1"] == 0.0
    assert report["model"]["family"] == "ans"


def test_fit_exit_codes_for_bad_inputs(panel_files, tmp_path, capsys):
    panel, centroids = panel_files
    bad_panel = tmp_path / "bad.csv"
    bad_panel.write_text("wrong,header\n1,2\n")
    code = main(fit_args(str(bad_panel), centroids, tmp_path / "o1"))
    assert code == 2
    assert "invalid input" in capsys.readouterr().err

    code = main(fit_args(str(tmp_path / "missing.csv"), centroids, tmp_path / "o2"))
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_fit_centroids_require_knn(panel_files, tmp_path, capsys):
    panel, centroids = panel_files
    args = [
        "fit",
        "--panel",
        panel,
        "--centroids",
        centroids,
        "--folds",
        "2",
        "--out-dir",
        str(tmp_path / "o"),
    ]
    assert main(args) == 2
    assert "--knn" in capsys.readouterr().err


def test_fit_estimation_failure_exit_code(tmp_path, capsys):
    # All-zero regressors with no intercept leave boosting nothing to select.
    panel = tmp_path / "zero.csv"
    rng = np.random.default_rng(0)
    with open(panel, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "period", "y", "x1"])
        for per in ("1", "2"):
            for loc in range(6):
                writer.writerow([f"L{loc}", per, repr(float(rng.normal())), "0.0"])
    centroids = tmp_path / "cent.csv"
    with open(centroids, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "cx", "cy"])
        pts = rng.uniform(size=(6, 2))
        for loc in range(6):
            writer.writerow([f"L{loc}", repr(float(pts[loc, 0])), repr(float(pts[loc, 1]))])
    args = [
        "fit",
        "--panel",
        str(panel),
        "--centroids",
        str(centroids),
        "--knn",
        "2",
        "--no-intercept",
        "--folds",
        "2",
        "--out-dir",
        str(tmp_path / "o"),
    ]
    with pytest.warns(UserWarning):
        code = main(args)
    assert code == 3
    assert "estimation failed" in capsys.readouterr().err


def test_zero_idiosyncratic_variance_exits_3(panel_files, tmp_path, capsys, monkeypatch):
    # an exact idiosyncratic system with a negative variance: its solution
    # clamps at sigma^2 = 0, though the data are not degenerate
    built = spboost.gmm.idiosyncratic_moment_system

    def clamped(triple, weights, n_periods):
        system = built(triple, weights, n_periods)
        return dataclasses.replace(system, vector=system.matrix @ np.array([0.3, 0.09, -1.0]))

    monkeypatch.setattr(spboost.gmm, "idiosyncratic_moment_system", clamped)
    panel, centroids = panel_files
    for argv in (fit_args(panel, centroids, tmp_path / "fit"), sim_args(tmp_path / "sim")):
        with pytest.warns(UserWarning, match="negative variance estimate .* clamped to zero"):
            assert main(argv) == 3
        assert capsys.readouterr().err.startswith(
            "spboost: estimation failed: estimated idiosyncratic variance is zero on "
            "non-degenerate data (best candidate ("
        )


def test_fixed_effects_with_intercept_is_invalid(panel_files, tmp_path, capsys):
    panel, centroids = panel_files
    code = main(fit_args(panel, centroids, tmp_path / "o", "--effects", "fixed"))
    assert code == 2
    capsys.readouterr()
    out = tmp_path / "fixed_ok"
    code = main(
        fit_args(panel, centroids, out, "--effects", "fixed", "--no-intercept")
    )
    assert code == 0
    report = load_json(out / "report.json")
    assert report["variance_components"]["rho1"] is None


# ---------------------------------------------------------------------------
# weights ingestion via neighbour lists


def write_ring_edges(path, n):
    """Neighbour list linking each location to the next two around a ring."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "weight"])
        for i in range(n):
            writer.writerow([str(i), str((i + 1) % n), "1.0"])
            writer.writerow([str(i), str((i + 2) % n), "1.0"])


def test_fit_with_neighbor_list_weights(panel_files, tmp_path):
    panel, _ = panel_files
    neighbours = tmp_path / "edges.csv"
    write_ring_edges(neighbours, 25)
    args = [
        "fit",
        "--panel",
        panel,
        "--weights",
        str(neighbours),
        "--row-normalize",
        "--cv",
        "time",
        "--folds",
        "2",
        "--mstop-budget",
        "100",
        "--out-dir",
        str(tmp_path / "o"),
    ]
    assert main(args) == 0
    report = load_json(tmp_path / "o" / "report.json")
    assert report["inputs"]["weights"]["row_normalized"] is True
    assert report["cross_validation"]["kind"] == "time"


def test_fit_refuses_unnormalized_neighbor_list_weights(panel_files, tmp_path, capsys):
    # every ring row sums to 2, outside the range |rho| <= 0.999 is valid for
    panel, _ = panel_files
    neighbours = tmp_path / "edges.csv"
    write_ring_edges(neighbours, 25)
    common = ["fit", "--panel", panel, "--weights", str(neighbours), "--cv", "time",
              "--folds", "2", "--mstop-budget", "50"]
    assert main([*common, "--out-dir", str(tmp_path / "raw")]) == 2
    err = capsys.readouterr().err
    assert "weight row 0" in err and "--row-normalize" in err
    assert not (tmp_path / "raw" / "report.json").exists()
    assert main([*common, "--row-normalize", "--out-dir", str(tmp_path / "normalized")]) == 0


@pytest.mark.parametrize("command", ["fit", "cv", "transform"])
def test_knn_with_neighbor_list_weights_is_refused(panel_files, tmp_path, capsys, command):
    # --knn builds weights from centroids only; with --weights it used to be
    # ignored while echoed in the report's parameters
    panel, _ = panel_files
    neighbours = tmp_path / "edges.csv"
    write_ring_edges(neighbours, 25)
    args = [command, "--panel", panel, "--weights", str(neighbours), "--row-normalize",
            "--knn", "3", "--cv", "time", "--mstop-budget", "50",
            "--out-dir", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["spboost: invalid input: --knn requires --centroids"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "cv", "transform"])
def test_row_normalize_with_centroids_is_refused(panel_files, tmp_path, capsys, command):
    # kNN weights are row-normalized already; the flag used to be ignored
    # while echoed in the report's parameters
    panel, centroids = panel_files
    args = [command, "--panel", panel, "--centroids", centroids, "--knn", "3",
            "--row-normalize", "--cv", "time", "--mstop-budget", "50",
            "--out-dir", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["spboost: invalid input: --row-normalize requires --weights"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# cv and transform subcommands


def test_cv_subcommand_writes_curve(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "cv"
    args = [
        "cv",
        "--panel",
        panel,
        "--centroids",
        centroids,
        "--knn",
        "3",
        "--folds",
        "2",
        "--mstop-budget",
        "120",
        "--out-dir",
        str(out),
    ]
    assert main(args) == 0
    payload = load_json(out / "cv.json")
    curve = payload["cross_validation"]["curve"]
    assert len(curve) == 121
    m_opt = payload["cross_validation"]["m_opt"]
    assert curve[m_opt] == min(curve)
    with open(out / "cv_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "cv_risk"]
    assert len(rows) == 122


def test_transform_subcommand_writes_whitened_panel(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "tr"
    args = [
        "transform",
        "--panel",
        panel,
        "--centroids",
        centroids,
        "--knn",
        "3",
        "--out-dir",
        str(out),
    ]
    assert main(args) == 0
    payload = load_json(out / "transform.json")
    assert payload["variance_components"]["sigma_eps2"] > 0
    assert payload["transform_fingerprint"]
    with open(out / "transformed.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["location", "period", "y_star"]
    assert len(rows) == 1 + 25 * 3
    values = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
    assert np.all(np.isfinite(values))


def test_transformed_csv_matches_prepare_in_period_major_order(panel_files, tmp_path):
    panel, centroids = panel_files
    out = tmp_path / "tr"
    flags = ["--panel", panel, "--centroids", centroids, "--knn", "3", "--family", "kkp"]
    assert main(["transform", *flags, "--seed", "2", "--out-dir", str(out)]) == 0
    # the oracle: the same set-up through the library, then prepare()
    data = read_panel_csv(panel)
    _, pts = read_centroid_csv(centroids, list(data.location_ids))
    weights = build_knn_weights(pts, 3)
    data = dataclasses.replace(data, centroids=pts)
    plan = build_fold_plan(data, FoldKind.SPATIAL, 5, 2)
    _, td = prepare(data, weights, ModelSpec(family="kkp"), BoostConfig(), plan)
    with open(out / "transformed.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["location", "period", "y_star", *td.names]
    labels = [(loc, per) for per in data.period_ids for loc in data.location_ids]
    assert [tuple(row[:2]) for row in rows[1:]] == labels
    for i, row in enumerate(rows[1:]):
        want = [float(td.response[i]), *(float(v) for v in td.design[i])]
        assert row[2:] == [repr(v) for v in want]


def test_transform_with_neighbor_list_weights_needs_no_centroids(panel_files, tmp_path):
    panel, _ = panel_files
    neighbours = tmp_path / "edges.csv"
    write_ring_edges(neighbours, 25)
    out = tmp_path / "tr"
    args = [
        "transform",
        "--panel",
        panel,
        "--weights",
        str(neighbours),
        "--row-normalize",
        "--out-dir",
        str(out),
    ]
    assert main(args) == 0
    assert load_json(out / "transform.json")["transform_fingerprint"]


def test_fit_and_transform_whiten_alike_with_boosted_residuals(tmp_path):
    # k >= 0.8 NT sends the preliminary residuals through boosting with CV,
    # so both commands must use the same fold plan to whiten alike.
    cfg = DgpConfig(
        n_locations=60, n_periods=4, n_candidates=200, knn_k=5, seed=1, n_replications=1
    )
    data, _ = generate_panel(cfg, 0)
    panel = tmp_path / "panel.csv"
    centroids = tmp_path / "centroids.csv"
    write_panel_csv(panel, data)
    write_centroid_csv(centroids, data)
    common = ["--panel", str(panel), "--centroids", str(centroids), "--knn", "5", "--seed", "1"]
    assert main(["fit", *common, "--out-dir", str(tmp_path / "fit")]) == 0
    assert main(["transform", *common, "--out-dir", str(tmp_path / "tr")]) == 0
    fit = load_json(tmp_path / "fit" / "report.json")
    tr = load_json(tmp_path / "tr" / "transform.json")
    assert tr["transform_fingerprint"] == fit["transform_fingerprint"]
    assert tr["variance_components"] == fit["variance_components"]


def test_cv_matches_fit_cross_validation(panel_files, tmp_path):
    panel, centroids = panel_files
    args = fit_args(panel, centroids, tmp_path / "fit", "--standardize")
    assert main(args) == 0
    assert main(["cv", *fit_args(panel, centroids, tmp_path / "cv", "--standardize")[1:]]) == 0
    fit = load_json(tmp_path / "fit" / "report.json")
    cv = load_json(tmp_path / "cv" / "cv.json")
    assert cv["cross_validation"] == fit["cross_validation"]
    with open(tmp_path / "fit" / "cv_curve.csv") as a, open(tmp_path / "cv" / "cv_curve.csv") as b:
        assert a.read() == b.read()


def test_low_dimensional_transform_matches_fit_without_fold_plan(
    panel_files, tmp_path, monkeypatch
):
    # least-squares preliminary residuals use no folds, so transform must
    # not pay for the k-means plan that fit needs for its CV curve
    panel, centroids = panel_files
    assert main(fit_args(panel, centroids, tmp_path / "fit")) == 0
    calls = []
    real = spboost.pipeline.make_spatial_folds

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spboost.pipeline, "make_spatial_folds", counting)
    assert main(["transform", *fit_args(panel, centroids, tmp_path / "tr")[1:]]) == 0
    assert calls == []
    fit = load_json(tmp_path / "fit" / "report.json")
    tr = load_json(tmp_path / "tr" / "transform.json")
    assert tr["transform_fingerprint"] == fit["transform_fingerprint"]
    assert tr["variance_components"] == fit["variance_components"]


def test_transform_refuses_spatial_cv_without_centroids_like_fit(tmp_path, capsys):
    # k >= 0.8 NT: boosted preliminary residuals need fit's spatial folds,
    # which neighbour-list weights without centroids cannot provide
    cfg = DgpConfig(
        n_locations=60, n_periods=4, n_candidates=200, knn_k=5, seed=1, n_replications=1
    )
    data, _ = generate_panel(cfg, 0)
    panel = tmp_path / "panel.csv"
    neighbours = tmp_path / "edges.csv"
    write_panel_csv(panel, data)
    write_ring_edges(neighbours, 60)
    common = ["--panel", str(panel), "--weights", str(neighbours), "--row-normalize"]
    for command in ("fit", "transform"):
        assert main([command, *common, "--out-dir", str(tmp_path / command)]) == 2
        assert "spatial cross-validation needs location centroids" in capsys.readouterr().err
    out = tmp_path / "time"
    args = ["transform", *common, "--cv", "time", "--mstop-budget", "50", "--out-dir", str(out)]
    assert main(args) == 0
    assert load_json(out / "transform.json")["transform_fingerprint"]


# ---------------------------------------------------------------------------
# simulate


def sim_args(out_dir, *extra):
    return [
        "simulate",
        "--n",
        "25",
        "--t",
        "3",
        "--k",
        "6",
        "--knn",
        "3",
        "--nsim",
        "1",
        "--seed",
        "7",
        "--folds",
        "2",
        "--mstop-budget",
        "150",
        "--out-dir",
        str(out_dir),
        *extra,
    ]


def test_simulate_writes_metrics(tmp_path):
    out = tmp_path / "sim"
    assert main(sim_args(out)) == 0
    payload = load_json(out / "metrics.json")
    assert set(payload["methods"]) == {"fgls", "ltb", "des"}
    assert payload["dgp"]["n_replications"] == 1
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "available", "tpr", "tnr", "mse"]
    assert len(rows) == 4
    assert (out / "replications.csv").exists()


def test_simulate_repeated_runs_are_identical(tmp_path):
    out = tmp_path / "sim"
    assert main(sim_args(out)) == 0
    first_metrics = (out / "metrics.csv").read_bytes()
    first_reps = (out / "replications.csv").read_bytes()
    shutil.copy(out / "metrics.json", tmp_path / "first.json")
    assert main(sim_args(out)) == 0
    assert (out / "metrics.csv").read_bytes() == first_metrics
    assert (out / "replications.csv").read_bytes() == first_reps
    a = load_json(tmp_path / "first.json")
    b = load_json(out / "metrics.json")
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_simulate_marks_fgls_unavailable_when_overparameterized(tmp_path):
    out = tmp_path / "high"
    args = [
        "simulate",
        "--n",
        "10",
        "--t",
        "2",
        "--k",
        "24",
        "--knn",
        "3",
        "--nsim",
        "1",
        "--methods",
        "fgls,ltb",
        "--folds",
        "2",
        "--mstop-budget",
        "100",
        "--out-dir",
        str(out),
    ]
    assert main(args) == 0
    payload = load_json(out / "metrics.json")
    assert payload["methods"]["fgls"]["available"] is False
    assert payload["methods"]["fgls"]["unavailable_reason"]
    assert payload["methods"]["ltb"]["available"] is True
    with open(out / "metrics.csv") as fh:
        rows = {row[0]: row for row in csv.reader(fh)}
    assert rows["fgls"][1] == "0"
    assert rows["fgls"][2] == ""  # unavailable cells are empty


def test_simulate_rejects_unknown_method(tmp_path, capsys):
    assert main(sim_args(tmp_path / "o", "--methods", "ltb,ridge")) == 2
    assert "unknown methods" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--k", "4"), "n_candidates=4"),
        (("--methods", "ltb,ltb"), "distinct"),
        (("--methods", ""), "non-empty"),
    ],
)
def test_simulate_refuses_undefined_metrics_before_fitting(tmp_path, capsys, extra, message):
    # every candidate informative leaves the true negative rate undefined;
    # a repeated method would write its rows twice, an empty list none
    out = tmp_path / "o"
    assert main(sim_args(out, *extra)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("spboost: invalid input: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--seed", "-1"), "seed must be non-negative, got -1"),
        (("--sigma-eps2", "nan"), "variances must be finite"),
        (("--sigma-mu2", "inf"), "variances must be finite"),
    ],
)
def test_simulate_refuses_invalid_dgp_flags(tmp_path, capsys, extra, message):
    out = tmp_path / "o"
    assert main(sim_args(out, *extra)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("spboost: invalid input: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cv", "transform"])
@pytest.mark.parametrize("cv", ["spatial", "time"])
def test_negative_seed_is_refused(panel_files, tmp_path, capsys, command, cv):
    # refused before any fold plan is built, so transform on least-squares
    # residuals and time folds agree with a spatially cross-validated fit
    panel, centroids = panel_files
    args = fit_args(panel, centroids, tmp_path / "o", "--cv", cv, "--seed", "-1")
    args[0] = command
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["spboost: invalid input: --seed must be non-negative, got -1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tau", ["1.5", "0", "nan"])
def test_out_of_range_tau_is_refused_before_any_fit(
    panel_files, tmp_path, capsys, monkeypatch, tau
):
    # refused before a fold plan is built or a replication generated
    def no_work(*args, **kwargs):
        raise AssertionError("an invalid --tau must be refused before any work")

    monkeypatch.setattr(spboost.pipeline, "build_fold_plan", no_work)
    monkeypatch.setattr(spboost.simulate, "generate_panel", no_work)
    panel, centroids = panel_files
    out = tmp_path / "o"
    for args in (fit_args(panel, centroids, out, "--tau", tau), sim_args(out, "--tau", tau)):
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"spboost: invalid input: threshold must be in (0, 1), got {float(tau)}"]
        assert not out.exists()


def test_unused_tau_is_accepted(panel_files, tmp_path):
    # no deselection runs, so the threshold is never checked
    panel, centroids = panel_files
    assert main(fit_args(panel, centroids, tmp_path / "fit", "--no-deselect", "--tau", "1.5")) == 0
    assert main(sim_args(tmp_path / "sim", "--methods", "fgls,ltb", "--tau", "1.5")) == 0


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spboost" in capsys.readouterr().out


def test_threads_flag_is_accepted_and_ignored(monkeypatch):
    # --threads is accepted by every subcommand (simulate forks that many
    # workers; fit, cv and transform ignore it); its default does not read
    # the environment, whatever SPBOOST_THREADS says
    monkeypatch.setenv("SPBOOST_THREADS", "4")
    args = build_parser().parse_args(["simulate", "--out-dir", "x"])
    assert args.threads == 1
    args = build_parser().parse_args(
        ["simulate", "--out-dir", "x", "--threads", "2"]
    )
    assert args.threads == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", ["fit", "cv", "transform", "simulate"])
def test_threads_below_one_are_refused(panel_files, tmp_path, capsys, command, threads):
    panel, centroids = panel_files
    out = tmp_path / command
    if command == "simulate":
        argv = sim_args(out, "--nsim", "2", "--threads", threads)
    else:
        argv = [command, *fit_args(panel, centroids, out, "--threads", threads)[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"spboost: invalid input: --threads must be at least 1, got {threads}"]
    assert not out.exists()


# negative variance estimates and fits without risk reduction: three of
# each warning at --nsim 4
WARNING_SIM = [
    "simulate", "--n", "20", "--k", "6", "--nsim", "4", "--mstop-budget", "30",
    "--sigma-eps2", "1e4", "--sigma-mu2", "0.01",
]


@pytest.fixture
def two_processors(monkeypatch):
    """Let ``run_experiment`` see two processors, and count its forked runs."""
    forked = []
    forked_rows = spboost.simulate._forked_rows

    def spy(*args):
        forked.append(args[1:])
        return forked_rows(*args)

    monkeypatch.setattr(spboost.simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(spboost.simulate, "_forked_rows", spy)
    return forked


@pytest.mark.parametrize("ignore_module", [None, r"spboost\.gmm"])
def test_forked_simulation_matches_serial(tmp_path, two_processors, ignore_module):
    # ignoring one module's warnings shows that each warning is re-issued
    # from the module that raised it in the worker
    outs, caught = [tmp_path / "t1", tmp_path / "t2"], []
    for threads, out in zip((1, 2), outs):
        # one --out-dir for both, which the report echoes
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            if ignore_module:
                warnings.filterwarnings("ignore", module=ignore_module)
            argv = [*WARNING_SIM, "--threads", str(threads), "--out-dir", str(tmp_path / "out")]
            assert main(argv) == 0
        assert multiprocessing.active_children() == []
        os.rename(tmp_path / "out", out)
        caught.append(
            sorted((w.category, str(w.message), w.filename, w.lineno) for w in record)
        )
    assert two_processors == [(range(4), 2)]
    assert caught[0] == caught[1]
    texts = [text.split(" ")[:3] for _, text, _, _ in caught[0]]
    assert len(texts) == (3 if ignore_module else 6)
    assert texts.count(["boosting", "achieved", "no"]) == 3
    for name in ("metrics.csv", "replications.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    one, two = (load_json(out / "metrics.json") for out in outs)
    for payload in (one, two):
        del payload["timing_seconds"], payload["parameters"]["threads"]
    assert one == two


def test_worker_warning_from_a_file_no_module_has_is_shown(tmp_path, monkeypatch, two_processors):
    fit_all = spboost.simulate._fit_all

    def warn_then_fit(*args):
        warnings.warn_explicit("from a generated file", UserWarning, "generated.py", 7)
        return fit_all(*args)

    monkeypatch.setattr(spboost.simulate, "_fit_all", warn_then_fit)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main([*WARNING_SIM, "--threads", "2", "--out-dir", str(tmp_path)]) == 0
    shown = [(w.filename, w.lineno) for w in record if str(w.message) == "from a generated file"]
    assert two_processors == [(range(4), 2)]
    assert shown == [("generated.py", 7)] * 2  # one _fit_all call per chunk, one chunk per worker


def test_worker_estimation_error_exits_3(tmp_path, capsys, monkeypatch, two_processors):
    def fail(panels, *args):
        first = next(iter(panels))[2]  # the fold seed of the chunk's first replication
        raise ConditioningError(f"covariance block (fold seed {first})", -1.25)

    monkeypatch.setattr(spboost.simulate, "_fit_all", fail)
    errors = []
    for threads in (1, 2):
        assert main([*WARNING_SIM, "--threads", str(threads), "--out-dir", str(tmp_path)]) == 3
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert two_processors == [(range(4), 2)]
    assert errors[0] == errors[1]
    assert errors[0].startswith("spboost: estimation failed: covariance block (fold seed ")
    assert errors[0].endswith("(minimum eigenvalue -1.250000e+00)\n")


ENVELOPE = {"tool", "command", "seed", "parameters", "timing_seconds"}


@pytest.mark.parametrize(
    "command, report, body",
    [
        (
            "fit",
            "report.json",
            {
                "inputs", "model", "variance_components", "transform_fingerprint",
                "cross_validation", "boosting", "baseline", "deselection", "coefficients",
            },
        ),
        ("cv", "cv.json", {"inputs", "cross_validation"}),
        ("transform", "transform.json", {"inputs", "variance_components", "transform_fingerprint"}),
        ("simulate", "metrics.json", {"dgp", "model", "methods"}),
    ],
)
def test_report_envelope_is_pinned(panel_files, tmp_path, command, report, body):
    panel, centroids = panel_files
    out = tmp_path / command
    if command == "simulate":
        argv = sim_args(out, "--threads", "3")
    else:
        argv = [command, *fit_args(panel, centroids, out, "--threads", "3")[1:]]
    assert main(argv) == 0
    payload = load_json(out / report)
    assert set(payload) == ENVELOPE | body
    assert payload["tool"] == {"name": "spboost", "version": __version__}
    assert payload["command"] == command
    flags = vars(build_parser().parse_args(argv))
    assert payload["seed"] == flags["seed"]
    del flags["command"]
    assert payload["parameters"] == flags
    assert payload["parameters"]["threads"] == 3


# the blocks that serialize a record field by field: renaming or adding a
# field must not change the report schema unnoticed
COMPONENT_KEYS = {
    "family", "rho1", "rho2", "sigma_mu2", "sigma_eps2", "rho1_at_boundary", "rho2_at_boundary",
}
FIT_MODEL_KEYS = {"family", "effects", "include_intercept", "include_spatial_lags"}
DGP_KEYS = {
    "n_locations", "n_periods", "n_candidates", "rho1", "rho2", "sigma_mu2", "sigma_eps2",
    "knn_k", "seed", "n_replications", "true_coefficients",
}
METHOD_KEYS = {"available", "tpr", "tnr", "mse", "unavailable_reason"}


@pytest.mark.parametrize(
    "extra, methods, header",
    [
        ((), ("ltb", "des"), "name,ltb,selected_ltb,des,selected_des"),
        (("--baseline",), ("ltb", "des", "fgls"), "name,ltb,selected_ltb,des,selected_des,fgls"),
        (("--no-deselect", "--baseline"), ("ltb", "fgls"), "name,ltb,selected_ltb,fgls"),
        (("--no-deselect",), ("ltb",), "name,ltb,selected_ltb"),
    ],
)
def test_fit_report_blocks_are_pinned(panel_files, tmp_path, extra, methods, header):
    panel, centroids = panel_files
    assert main(fit_args(panel, centroids, tmp_path, *extra)) == 0
    payload = load_json(tmp_path / "report.json")
    assert set(payload["variance_components"]) == COMPONENT_KEYS
    assert set(payload["model"]) == FIT_MODEL_KEYS
    assert payload["coefficients"]
    for row in payload["coefficients"]:
        assert set(row) == {"name", *methods}
    with open(tmp_path / "coefficients.csv") as fh:
        assert fh.readline().rstrip("\r\n") == header


def test_transform_and_simulate_report_blocks_are_pinned(panel_files, tmp_path):
    panel, centroids = panel_files
    argv = ["transform", *fit_args(panel, centroids, tmp_path / "transform")[1:]]
    assert main(argv) == 0
    payload = load_json(tmp_path / "transform" / "transform.json")
    assert set(payload["variance_components"]) == COMPONENT_KEYS
    for methods in ("fgls,ltb,des", "ltb,fgls"):
        out = tmp_path / methods.replace(",", "-")
        assert main(sim_args(out, "--methods", methods)) == 0
        payload = load_json(out / "metrics.json")
        assert set(payload["dgp"]) == DGP_KEYS
        assert set(payload["model"]) == {"family", "effects"}
        assert set(payload["methods"]) == set(methods.split(","))
        for entry in payload["methods"].values():
            assert set(entry) == METHOD_KEYS


def test_csv_cells_write_numpy_scalars_as_python_numbers(tmp_path):
    path = tmp_path / "cells.csv"
    row = [np.float64(0.1), np.float32(0.5), np.int64(3), None, "x"]
    write_csv(path, ["a", "b", "c", "d", "e"], [row])
    assert path.read_text().splitlines() == ["a,b,c,d,e", "0.1,0.5,3,,x"]


# ---------------------------------------------------------------------------
# BLAS thread counts
#
# Bytes are reproducible only at a fixed BLAS configuration: another thread
# count rounds differently.  Every decision must still agree, and every
# number within COEF_RTOL of the benchmark's output check.

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COEF_RTOL = 1e-9


def run_with_blas_threads(argv, threads):
    """Run the command line in a fresh interpreter, BLAS pinned to ``threads``."""
    env = dict(os.environ)
    env.update({name: str(threads) for name in BLAS_THREAD_VARIABLES})
    src = os.path.dirname(os.path.dirname(os.path.abspath(spboost.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "spboost.cli", *argv], env=env, check=True, capture_output=True
    )


def assert_close(a, b, what):
    if a is None or b is None:
        assert a is b, what
    else:
        assert abs(a - b) <= COEF_RTOL * max(1.0, abs(a)), (what, a, b)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare_fits(one, two):
    a, b = load_json(one / "report.json"), load_json(two / "report.json")
    assert a["cross_validation"]["m_opt"] == b["cross_validation"]["m_opt"]
    assert a["boosting"]["selection_path"] == b["boosting"]["selection_path"]
    assert a["boosting"]["excluded_columns"] == b["boosting"]["excluded_columns"]
    assert a["deselection"]["retained"] == b["deselection"]["retained"]
    assert a["baseline"] == b["baseline"]
    assert [c["name"] for c in a["coefficients"]] == [c["name"] for c in b["coefficients"]]
    for ca, cb in zip(a["coefficients"], b["coefficients"]):
        # fgls is absent where the design is wider than the panel is long
        assert ca.keys() == cb.keys()
        for method in ca.keys() - {"name"}:
            assert_close(ca[method], cb[method], (ca["name"], method))
    rows_a = read_rows(one / "coefficients.csv")
    rows_b = read_rows(two / "coefficients.csv")
    for ra, rb in zip(rows_a, rows_b):
        assert (ra["selected_ltb"], ra["selected_des"]) == (rb["selected_ltb"], rb["selected_des"])


def compare_simulations(one, two):
    a, b = load_json(one / "metrics.json"), load_json(two / "metrics.json")
    assert set(a["methods"]) == set(b["methods"])
    for method, ma in a["methods"].items():
        mb = b["methods"][method]
        assert (ma["available"], ma["tpr"], ma["tnr"]) == (mb["available"], mb["tpr"], mb["tnr"])
        assert_close(ma["mse"], mb["mse"], method)
    rows_a = read_rows(one / "replications.csv")
    rows_b = read_rows(two / "replications.csv")
    assert len(rows_a) == len(rows_b) > 0
    for ra, rb in zip(rows_a, rows_b):
        key = ("replication", "method", "tpr", "tnr")
        assert [ra[k] for k in key] == [rb[k] for k in key]
        assert_close(float(ra["squared_error"]), float(rb["squared_error"]), ra)


def write_fit_inputs(root, n, t, k):
    cfg = DgpConfig(
        n_locations=n, n_periods=t, n_candidates=k, rho1=0.4, rho2=-0.4, seed=3,
        n_replications=1,
    )
    data, _ = generate_panel(cfg, 0)
    root.mkdir()
    write_panel_csv(root / "panel.csv", data)
    write_centroid_csv(root / "centroids.csv", data)
    return str(root / "panel.csv"), str(root / "centroids.csv")


@pytest.mark.parametrize(
    "case, n, t, k",
    [
        ("fit-boosted", 100, 5, 800),
        ("fit-least-squares", 200, 5, 40),
        ("simulate", 100, 5, 40),
    ],
)
def test_decisions_agree_across_blas_thread_counts(tmp_path, case, n, t, k):
    if case == "simulate":
        argv = ["simulate", "--n", str(n), "--t", str(t), "--k", str(k), "--nsim", "3"]
    else:
        # the intercept and the k candidates against the least-squares cut-off
        boosted = k + 1 >= OLS_DIMENSION_RATIO * n * t
        assert boosted == (case == "fit-boosted")
        panel, centroids = write_fit_inputs(tmp_path / "in", n, t, k)
        argv = ["fit", "--panel", panel, "--centroids", centroids, "--knn", "10", "--baseline"]
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        run_with_blas_threads([*argv, "--out-dir", str(out)], threads)
    (compare_simulations if case == "simulate" else compare_fits)(*outs)
