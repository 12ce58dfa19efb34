"""Where a result was measured: CPUs, BLAS build and threads, versions, commit."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np


def _blas_build():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        return None, None


def _openblas_function(symbols):
    """The first of ``symbols`` found in an OpenBLAS numpy loaded; None without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, asked from the library itself."""
    fn = _openblas_function(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                             "openblas_get_num_threads"))
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = []
    return int(fn())


def set_blas_threads(n):
    """Make the OpenBLAS numpy loaded use ``n`` threads; without OpenBLAS, nothing."""
    fn = _openblas_function(("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                             "openblas_set_num_threads"))
    if fn is not None:
        fn.restype = None
        fn.argtypes = [ctypes.c_int]
        fn(n)


def _git_commit(root):
    """HEAD of the repository at ``root``; None outside git or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def collect(root):
    name, version = _blas_build()
    return {
        "nproc": os.cpu_count(),
        "blas": name,
        "blas_version": version,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }
