"""The environment a benchmark run measures in: pinned first, then recorded.

``pin()`` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads.  It pins the BLAS threads so that the op's own
threads times the BLAS threads make the processor count: the fits run one
thread and get every processor for BLAS (``fit-large`` takes about 10 s
with one OpenBLAS thread against 6 s with two on a 2-core machine), while
``sim-ref`` runs one replication thread per processor and single-threaded
BLAS, so that no more threads run than there are processors.  It drops
``SPBOOST_THREADS`` so only the flags of an op set its parallelism.
``describe()`` records what a result depends on; results whose
environments differ are not compared.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# keys of describe() that identify the code measured, not the environment
CODE_KEYS = ("commit", "source_sha256")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin(op_threads: int = 1) -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("the BLAS thread count must be pinned before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = str(max(1, nproc() // op_threads))
    os.environ.pop("SPBOOST_THREADS", None)


def _blas_threads():
    """Threads OpenBLAS actually uses, read from the library numpy loaded."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _openblas_version():
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_sha256(root: str) -> str:
    """Digest of the package sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def describe(root: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "machine": platform.machine(),
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
    }


def differences(a: dict, b: dict) -> list:
    """Environment keys on which two descriptions differ (code keys aside)."""
    return sorted(k for k in set(a) | set(b) if k not in CODE_KEYS and a.get(k) != b.get(k))
