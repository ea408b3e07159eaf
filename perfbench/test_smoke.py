"""Smoke test of the benchmark: every workload at n = 30, untraced and traced.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It exercises the same code paths as the full-size workloads in a few
seconds each.  It is not part of the package's own suite under ``tests/``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import outcome  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--size", "smoke", "--seconds", "0.5",
                "--trace", str(trace), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in line["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_same_seed_same_inputs():
    base = os.path.join(ROOT, ".perfbench", "test-inputs")
    shutil.rmtree(base, ignore_errors=True)
    files = []
    for copy in ("a", "b"):
        write_inputs(WORKLOADS["fit-wide"], "smoke", 5, os.path.join(base, copy))
        with open(os.path.join(base, copy, "panel.csv"), "rb") as fh:
            files.append(fh.read())
    write_inputs(WORKLOADS["fit-wide"], "smoke", 6, os.path.join(base, "c"))
    with open(os.path.join(base, "c", "panel.csv"), "rb") as fh:
        other = fh.read()
    shutil.rmtree(base)
    assert files[0] == files[1] != other


def test_check_catches_changed_outputs():
    ref = {
        "command": "fit", "sha256": "x", "m_opt": 3, "selection_path": ["a", "b", "a"],
        "retained": ["a"], "transform_fingerprint": "f", "names": ["a", "b"],
        "coefficients": {"ltb": [1.0, 2.0]}, "variance_components": {"rho2": 0.5},
    }
    assert outcome.mismatches(dict(ref), ref, exact=True) == []
    near = dict(ref, coefficients={"ltb": [1.0, 2.0 + 1e-12]}, sha256="y")
    assert outcome.mismatches(near, ref, exact=False) == []
    assert outcome.mismatches(near, ref, exact=True) == ["sha256"]
    assert outcome.mismatches(dict(ref, m_opt=4), ref, exact=False) == ["m_opt"]
    far = dict(ref, coefficients={"ltb": [1.0, 2.001]})
    assert outcome.mismatches(far, ref, exact=False) == ["coefficients.ltb"]


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
