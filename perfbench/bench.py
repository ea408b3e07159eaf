"""One run of one workload: set-up, a closed loop of checked ops, metrics.

Untraced run (``trace=False``), giving the end-to-end metrics:

1. Set-up, ``SETUP_BEFORE`` times, each in a fresh process that imports
   spboost and writes the workload's inputs.
2. The reference: the stage-by-stage replay, untraced.  It runs the same
   public functions as the op, so it is also the warm-up.
3. A closed loop: one client calls ``spboost.cli.main`` in this process,
   the next op starting only after the previous one returned, until
   ``seconds`` have passed (at least one timed op).  ``wall_s_p50`` is the
   median op time; ``peak_rss_mb`` is this process's peak resident memory,
   which the replay of the same computation shares.
4. Set-up ``SETUP_AFTER`` more times, into a spare directory.  The host's
   speed drifts over tens of seconds, so set-ups taken at both ends of the
   run give a median (``setup_s``) that one slow moment moves less.
5. The check: every op must exit 0 and reproduce the reference exactly;
   ops for a seed in ``reference.json`` must also match the recorded
   outputs within ``outcome.COEF_RTOL``.

Traced run (``trace=True``), giving the per-layer metrics: one set-up, a
warm-up op, timed untraced ops for half of ``seconds``, then traced
replays for the other half.  A traced replay that does not reproduce the
command's outputs exactly raises ``ReplayMismatch``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import environment
import outcome
from spboost.cli import main as spboost_main
from replay import ReplayMismatch, replay
from spans import Tracer
from workloads import WORKLOADS, dgp_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_BEFORE = 3
SETUP_AFTER = 2
SUBPROCESS_TIMEOUT_S = 150

# per-layer metric -> span whose self time it sums
LAYER_SPANS = {
    "panel.read_s": "panel.read",
    "weights.load_s": "weights.load",
    "panel.design_s": "panel.design",
    "crossval.folds_s": "crossval.folds",
    "gmm.prelim_s": "gmm.prelim",
    "gmm.moments_s": "gmm.moments",
    "linalg.whitener_s": "linalg.whitener",
    "transform.apply_s": "transform.apply",
    "crossval.cv_curve_s": "crossval.cv_curve",
    "boosting.final_s": "boosting.final",
    "boosting.deselect_s": "boosting.deselect",
    "boosting.baseline_s": "boosting.baseline",
    "report.write_s": "report.write",
    "simulate.generate_s": "simulate.generate",
    "op.self_s": "op",
}
COUNTS = ("crossval.m_opt", "crossval.m_stop", "crossval.n_folds", "report.bytes")


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        tag = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
        self.work = os.path.join(WORK, tag)
        self.input_dir = os.path.join(self.work, "inputs")
        self.out_dir = os.path.join(self.work, "out")
        self.replay_dir = os.path.join(self.work, "replay")
        self.result_path = os.path.join(WORK, "results", tag + ".json")
        self.argv = self.workload.argv(size, seed, self.input_dir, self.out_dir, environment.nproc())
        self.replay_argv = self.workload.argv(
            size, seed, self.input_dir, self.replay_dir, environment.nproc()
        )
        self.ops: list[dict] = []

    # -- stages -----------------------------------------------------------

    def setup(self, repeats: int, input_dir: str = "") -> list:
        """Set up ``repeats`` times, each in a fresh process; seconds of each.

        Without ``input_dir`` the work directory is cleared first and the
        inputs go where the ops read them.
        """
        if not input_dir:
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
            input_dir = self.input_dir
        cmd = [
            sys.executable, os.path.join(HERE, "setup_inputs.py"),
            self.workload.name, self.size, str(self.seed), input_dir,
        ]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.Popen(cmd)
            # wait() with a timeout polls in steps of up to 50 ms, a tenth of a
            # set-up; a timer enforces the limit and wait() returns at the exit
            watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
            times.append(time.perf_counter() - start)
            if rc != 0:
                raise subprocess.CalledProcessError(rc, cmd)
        return times

    def cli_op(self, timed: bool) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rec = {"timed": timed, "rc": None}
        start = time.perf_counter()
        try:
            rec["rc"] = spboost_main(self.argv)
        except Exception:  # a crash is a failed op, reported, not the end of the run
            traceback.print_exc()
        rec["seconds"] = time.perf_counter() - start
        if rec["rc"] == 0:
            rec["outcome"] = outcome.read_outcome(self.workload.command, self.out_dir)
        self.ops.append(rec)
        return rec

    def replay_op(self, tracer: Tracer, op_id: int) -> dict:
        shutil.rmtree(self.replay_dir, ignore_errors=True)
        with tracer.op(op_id, "op"):
            replay(self.replay_argv, tracer)
        return outcome.read_outcome(self.workload.command, self.replay_dir)

    def closed_loop(self, seconds: float) -> list:
        deadline = time.perf_counter() + seconds
        walls = []
        while not walls or time.perf_counter() < deadline:
            walls.append(self.cli_op(timed=True)["seconds"])
        return walls

    def check(self, reference: dict) -> int:
        """Mark each op ok or not against the replay and the recorded outputs."""
        recorded = self.recorded()
        for rec in self.ops:
            bad = ["exit code %s" % rec["rc"]] if rec["rc"] != 0 else []
            if not bad:
                bad = outcome.mismatches(rec["outcome"], reference, exact=True)
                if recorded is not None:
                    bad += ["recorded " + b for b in outcome.mismatches(rec["outcome"], recorded, exact=False)]
            rec["ok"] = not bad
            if bad:
                print(f"perfbench: {self.workload.name} op failed its check: {bad}", file=sys.stderr)
        return sum(not rec["ok"] for rec in self.ops)

    def recorded(self):
        if self.size != "full":
            return None
        with open(REFERENCE) as fh:
            return json.load(fh)["seeds"].get(str(self.seed), {}).get(self.workload.name)

    # -- the two kinds of run ---------------------------------------------

    def run(self) -> dict:
        result = {
            "workload": self.workload.name,
            "argv": self.argv,
            "predicted_dominant": list(self.workload.dominant),
            "seed": self.seed,
            "size": self.size,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment.describe(ROOT),
        }
        os.makedirs(os.path.dirname(self.result_path), exist_ok=True)
        if self.trace:
            result.update(self._traced())
        else:
            result.update(self._untraced())
        result["ops"] = [
            {k: rec.get(k) for k in ("timed", "rc", "seconds", "ok")}
            | {"sha256": rec.get("outcome", {}).get("sha256")}
            for rec in self.ops
        ]
        result["attempted"] = len(self.ops)
        result["failed"] = sum(not rec["ok"] for rec in self.ops)
        shutil.rmtree(self.work)  # inputs and outputs; tens of MB at full size
        with open(self.result_path, "w") as fh:
            json.dump(result, fh, indent=1)
        return result

    def _untraced(self) -> dict:
        setup_times = self.setup(SETUP_BEFORE)
        reference = self.replay_op(Tracer(enabled=False), 0)
        walls = self.closed_loop(self.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += self.setup(SETUP_AFTER, os.path.join(self.work, "spare-inputs"))
        self.check(reference)
        first = next((rec["outcome"] for rec in self.ops if rec.get("ok")), None)
        truth = dgp_config(self.workload, self.size, self.seed).true_coefficients
        return {
            "setup_samples_s": setup_times,
            "wall_samples_s": walls,
            "metrics": {
                "setup_s": statistics.median(setup_times),
                "wall_s_p50": statistics.median(walls),
                "peak_rss_mb": peak_rss_mb,
            },
            "quality": None if first is None else outcome.quality(first, truth),
            "sha256": None if first is None else first["sha256"],
        }

    def _traced(self) -> dict:
        self.setup(1)
        self.cli_op(timed=False)
        walls = self.closed_loop(self.seconds / 2)
        tracer = Tracer()
        deadline = time.perf_counter() + self.seconds / 2
        replays = []
        while not replays or time.perf_counter() < deadline:
            replays.append(self.replay_op(tracer, len(replays)))
        drift = [outcome.mismatches(r, replays[0], exact=True) for r in replays[1:]]
        if self.check(replays[0]) or any(drift):
            raise ReplayMismatch(
                f"{self.workload.name}: the traced replay does not reproduce the command's "
                f"outputs (see the failed checks above; replay drift: {drift})"
            )
        tracer.write(self.result_path[: -len(".json")] + "-spans.json")
        per_op = []
        for i in range(len(replays)):
            self_s = tracer.self_seconds(i)
            counts = tracer.counts[i]
            row = {name: self_s.get(span, 0.0) for name, span in LAYER_SPANS.items()}
            row.update({name: counts.get(name, 0) for name in COUNTS})
            row["trace.op_s"] = tracer.op_seconds(i)
            per_op.append(row)
        metrics = {name: statistics.median(r[name] for r in per_op) for name in per_op[0]}
        cli_wall = statistics.median(walls)
        m_stop = metrics["crossval.m_stop"]
        metrics.update(
            {
                "crossval.iter_useful_ratio": metrics["crossval.m_opt"] / m_stop if m_stop else 0.0,
                "simulate.speedup_vs_serial": metrics["trace.op_s"] / cli_wall,
                "trace.cli_wall_s": cli_wall,
                "trace.overhead_s": metrics["trace.op_s"] - cli_wall,
            }
        )
        absent = sorted(k for k, span in LAYER_SPANS.items() if span in tracer.absent_layers(0))
        layers = {k: v for k, v in metrics.items() if k in LAYER_SPANS and k != "op.self_s"}
        dominant = max(layers, key=layers.get)
        return {
            "wall_samples_s": walls,
            "traced_ops": per_op,
            "metrics": metrics,
            "absent_layers": absent,
            "dominant": dominant,
            "dominant_confirmed": dominant in self.workload.dominant,
        }


def result_line(result: dict) -> dict:
    """The one-line JSON result: the run's metrics named in BENCHMARK.json."""
    with open(SPEC) as fh:
        spec = json.load(fh)["per_layer" if result["trace"] else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in spec
        },
    }
