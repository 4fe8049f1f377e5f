"""The environment record printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from . import ROOT, SRC

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    """BLAS name and version from NumPy's build record, plus its live thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Ask a bundled OpenBLAS for its thread count; None when it cannot be asked."""
    pkg = Path(np.__file__).parent
    for libdir in (pkg.parent / "numpy.libs", pkg / ".dylibs"):
        for lib_path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            try:
                lib = ctypes.CDLL(str(lib_path))
            except OSError:
                continue
            for symbol in _THREAD_GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines(),
    }
