"""Set-up of one workload in a fresh process: import spboost, write the inputs.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SIZE SEED INPUT_DIR

The benchmark times this whole process (interpreter start included) as the
workload's set-up.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import spboost  # noqa: E402,F401  (the import is part of the set-up being timed)
from workloads import WORKLOADS, write_inputs  # noqa: E402

if __name__ == "__main__":
    name, size, seed, input_dir = sys.argv[1:5]
    write_inputs(WORKLOADS[name], size, int(seed), input_dir)
