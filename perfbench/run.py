"""spboost benchmark: closed-loop runs of the command line, checked and timed.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload fit-wide --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` reports the end-to-end metrics (set-up time, median op time,
peak memory); ``--trace 1`` replays the op stage by stage under spans and
reports per-layer self times and counts.  Both check every op's outputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics for a reader, with the estimator's quality and the
output checksums.  The full result, environment included, goes to
``.perfbench/results``; ``perfbench/compare.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import environment

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, line: dict) -> None:
    """Human-readable lines: every metric by name, with unit and sample count."""
    env = result["environment"]
    print(
        f"== {result['workload']} size={result['size']} seed={result['seed']} "
        f"trace={int(result['trace'])}  nproc={env['nproc']} blas_threads={env['blas_threads']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"openblas={env['openblas']} commit={env['commit']} src={env['source_sha256'][:12]}"
    )
    print("   op: spboost " + " ".join(result["argv"]))
    n_timed = len(result["wall_samples_s"])
    for name, m in line["metrics"].items():
        note = ""
        if name == "wall_s_p50" or name == "trace.cli_wall_s":
            note = f"  (median of {n_timed} timed ops)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])} fresh processes)"
        elif name in result.get("absent_layers", ()):
            note = "  (absent: layer not used)"
        print(f"   {name:<28} {_fmt(m['value']):>12} {m['unit']}{note}")
    print(
        f"   {'failed_frac':<28} {_fmt(line['failed'] / line['attempted']):>12} "
        f"({line['failed']} of {line['attempted']} ops)"
    )
    if result["trace"]:
        verdict = "confirmed" if result["dominant_confirmed"] else "NOT confirmed"
        print(
            f"   dominant layer {result['dominant']}; predicted "
            f"{' + '.join(result['predicted_dominant'])}: {verdict}"
        )
        return
    quality = result["quality"]
    for name in ("ltb_mse", "des_mse", "des_tpr", "des_tnr"):
        value = "absent" if quality is None else _fmt(quality[name])
        print(f"   {name:<28} {value:>12}")
    print(f"   sha256 of the main CSV         {result['sha256']}")


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import bench

    result = bench.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size).run()
    line = bench.result_line(result)
    report(result, line)
    print(json.dumps(line), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    lines = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(out[-1])
    print(
        json.dumps(
            {
                "correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {
                    f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "spboost", "__init__.py")):
        print(
            f"perfbench: no spboost sources under {SRC}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    args = parse_args(argv)
    if args.workload != "all":  # "all" runs each workload in a process of its own
        from workloads import WORKLOADS

        environment.pin(WORKLOADS[args.workload].op_threads(environment.nproc()))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
