"""Record the reference outputs every op of a recorded seed must reproduce.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs each workload's op once at full size for the default seed and for one
held-out seed, each workload in a process of its own pinned as its runs are,
and writes the outcomes to ``perfbench/reference.json``.  The held-out seed
is there so that a later claim can be re-checked on a seed nobody tuned
against.  Re-record only when a change is meant to alter the outputs, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import environment

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 20261017)


def record_one(name: str) -> dict:
    """The workload's outcome per seed, with the environment it ran in."""
    from workloads import WORKLOADS

    environment.pin(WORKLOADS[name].op_threads(environment.nproc()))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import bench

    outcomes = {}
    for seed in SEEDS:
        run = bench.Run(name, seed, 0.0, False, "full")
        run.setup(1)
        rec = run.cli_op(timed=False)
        if rec["rc"] != 0:
            raise SystemExit(f"record: {name} seed {seed} exited with {rec['rc']}")
        outcomes[str(seed)] = rec["outcome"]
    return {"environment": environment.describe(bench.ROOT), "seeds": outcomes}


def main(argv: list) -> int:
    if argv:
        print(json.dumps(record_one(argv[0])))
        return 0
    from workloads import WORKLOADS

    reference = {"environment": {}, "seeds": {str(seed): {} for seed in SEEDS}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), name],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        ).stdout
        one = json.loads(out.splitlines()[-1])
        reference["environment"][name] = one["environment"]
        for seed, outcome in one["seeds"].items():
            reference["seeds"][seed][name] = outcome
        print(f"recorded {name}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
