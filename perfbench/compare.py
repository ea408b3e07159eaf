"""Compare two sets of benchmark results, refusing if their environments differ.

Usage, from the root of a checkout:

    python3 perfbench/compare.py --base .perfbench/base/*.json --new .perfbench/results/*.json

Each file is a result written by ``run.py`` (``.perfbench/results``; copy
the parent's results aside before measuring the change).  Results are
grouped by workload and kind of run; for each metric the median and
quartiles of each side are printed with the change of the medians.  The
processor count, BLAS threads, Python, numpy, scipy and OpenBLAS versions
must be the same in every file of a workload, otherwise nothing is
compared (exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import environment


def _load(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    keys = sorted(set(base) & set(new))
    for key in keys:
        reference = base[key][0]["environment"]
        for r in base[key] + new[key]:
            diff = environment.differences(reference, r["environment"])
            if diff:
                print(f"compare: refusing, {key[0]} environments differ in {diff}", file=sys.stderr)
                return 2
    for key in keys:
        workload, traced = key
        print(f"== {workload} ({'traced' if traced else 'end to end'}): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        for name in base[key][0]["metrics"]:
            b = _summary([r["metrics"][name] for r in base[key]])
            n = _summary([r["metrics"][name] for r in new[key]])
            change = f"{n[1] / b[1] - 1:+.2%}" if b[1] else "n/a"
            print(f"   {name:<28} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  median change {change}")
        failed = sum(r["failed"] for r in new[key])
        if failed:
            print(f"   {failed} new op(s) failed their output check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
