"""The benchmark's workloads: what each op is, its inputs and why it is here.

Each op is one invocation of the ``spboost`` command line.  Inputs come
from the simulation DGP keyed by the benchmark seed, with rho = (0.4, -0.4)
and replication 0, written as panel and centroid CSVs; the program sees
only those files and its flags.  ``simulate`` generates its own data from
``--seed``, so its inputs are the flags alone.

Sizes were chosen so that each workload is dominated by a different layer
(``dominant``, the prediction the traced run checks); why each workload is
here is stated in BENCHMARK.json.  The ``smoke`` size keeps every code
path (boosted versus OLS preliminary residuals, FGLS available versus
unavailable, parallel replications) at n = 30.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

RHO1 = 0.4
RHO2 = -0.4
N_PERIODS = 5
KNN = 10


@dataclass(frozen=True)
class Size:
    n: int
    k: int
    nsim: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: dict
    flags: tuple
    dominant: tuple

    def size(self, size_name: str) -> Size:
        return self.sizes[size_name]

    def op_threads(self, nproc: int) -> int:
        """Threads the op runs: ``simulate`` one per processor, the fits one."""
        return nproc if self.command == "simulate" else 1

    def argv(self, size_name: str, seed: int, input_dir: str, out_dir: str, nproc: int) -> list:
        """The exact command line of one op."""
        s = self.size(size_name)
        if self.command == "simulate":
            return [
                "simulate", "--n", str(s.n), "--t", str(N_PERIODS), "--k", str(s.k),
                "--rho1", str(RHO1), "--rho2", str(RHO2), "--nsim", str(s.nsim),
                "--seed", str(seed), "--threads", str(self.op_threads(nproc)),
                "--out-dir", out_dir,
            ]
        panel, centroids = input_paths(input_dir)
        return [
            self.command, "--panel", panel, "--centroids", centroids,
            "--knn", str(KNN), *self.flags, "--out-dir", out_dir,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-ref",
            command="simulate",
            sizes={"full": Size(100, 40, 20), "smoke": Size(30, 40, 2)},
            flags=(),
            dominant=("crossval.folds_s",),
        ),
        Workload(
            name="fit-wide",
            command="fit",
            sizes={"full": Size(100, 800), "smoke": Size(30, 200)},
            flags=("--baseline",),
            dominant=("gmm.prelim_s", "crossval.cv_curve_s"),
        ),
        Workload(
            name="fit-large",
            command="fit",
            sizes={"full": Size(2000, 40), "smoke": Size(30, 40)},
            flags=("--baseline",),
            dominant=("linalg.whitener_s",),
        ),
    )
}


def dgp_config(workload: Workload, size_name: str, seed: int):
    """The DGP behind a workload's inputs (and its true coefficients)."""
    from spboost import DgpConfig

    s = workload.size(size_name)
    return DgpConfig(
        n_locations=s.n,
        n_periods=N_PERIODS,
        n_candidates=s.k,
        rho1=RHO1,
        rho2=RHO2,
        knn_k=KNN,
        seed=seed,
        n_replications=max(s.nsim, 1),
    )


def input_paths(input_dir: str) -> tuple:
    return os.path.join(input_dir, "panel.csv"), os.path.join(input_dir, "centroids.csv")


def write_inputs(workload: Workload, size_name: str, seed: int, input_dir: str) -> None:
    """Generate replication 0 of the workload's DGP and write it as CSVs."""
    from spboost import generate_panel, write_panel_csv

    cfg = dgp_config(workload, size_name, seed)
    if workload.command == "simulate":  # generates its own data from --seed
        return
    data, _ = generate_panel(cfg, 0)
    os.makedirs(input_dir, exist_ok=True)
    panel, centroids = input_paths(input_dir)
    write_panel_csv(panel, data)
    with open(centroids, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "cx", "cy"])
        for loc, (cx, cy) in zip(data.location_ids, data.centroids):
            writer.writerow([loc, repr(float(cx)), repr(float(cy))])
