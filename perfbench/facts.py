"""Facts about the machine and the program recorded with every result."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

# Symbols that report OpenBLAS's thread count, by build flavour.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> tuple[str, int | None]:
    """The BLAS numpy was built against and the thread count it runs with."""
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        vendor = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return vendor, int(function())
    return vendor, None


def src_line_count(root: Path) -> int:
    """Lines in the program's Python sources under src/ (ROADMAP aim 2)."""
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((root / "src").rglob("*.py"))
    )


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_facts(root: Path, permutations: int) -> dict:
    vendor, blas_threads = blas_info()
    nproc = os.cpu_count() or 1
    crp_threads = os.environ.get("CRP_THREADS") or None
    # permtest's pool: CRP_THREADS if set, else every CPU, never more than B.
    pool = min(int(crp_threads) if crp_threads else nproc, max(permutations, 1))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads,
        "crp_threads": crp_threads,
        "pool_workers": pool,
        "pool_x_blas_threads": pool * blas_threads if blas_threads else None,
        "git_commit": git_commit(root),
        "src_lines": src_line_count(root),
    }
