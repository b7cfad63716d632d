"""Environment record attached to every benchmark result.

Two results are comparable only when their records are equal: the CSV bytes
depend on the LAPACK build and the CPU kernel OpenBLAS picks at run time, and
the timings on the core count, affinity and thread settings.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

from wignerlab.experiments import worker_count

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "WIGNERLAB_THREADS",
)


def _library(dep: dict) -> dict:
    return {key: dep.get(key) for key in ("name", "version", "openblas configuration")}


def _openblas_runtime() -> dict:
    """Config string, CPU kernel and thread count of the OpenBLAS numpy bundles."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    if lib is None or not hasattr(lib, "scipy_openblas_get_config64_"):
        return {"config": None, "core": None, "threads": None}
    get_config, get_core, get_threads = (
        getattr(lib, f"scipy_openblas_get_{what}64_") for what in ("config", "corename", "num_threads")
    )
    for fn in (get_config, get_core):
        fn.argtypes, fn.restype = [], ctypes.c_char_p
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return {"config": get_config().decode(), "core": get_core().decode(), "threads": get_threads()}


def record() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _library(deps["blas"]),
        "lapack": _library(deps["lapack"]),
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "worker_count": worker_count(),
    }


def build_key(env: dict) -> str:
    """What the CSV bytes depend on: numpy, the LAPACK build, its run-time
    kernel and its thread count (the blocked reductions of ``eigvalsh`` sum in
    another order when OpenBLAS runs on fewer threads)."""
    lapack, blas = env["lapack"], env["openblas_runtime"]
    return f"numpy {env['numpy']} | {lapack['name']} {lapack['version']} | {blas['config']} | threads {blas['threads']}"
