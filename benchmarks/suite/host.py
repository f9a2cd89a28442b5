"""Host record and the two host-capability probes.

``host.gemm_gflops`` and ``host.stream_gbps`` are measured in the same
run as the kernel so ``core.snap.frac_of_gemm_peak`` has an honest
denominator on whatever machine the benchmark lands on.
"""

from __future__ import annotations

import glob
import os
import platform
import sys
import time

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: GEMM edge of the 1-thread peak probe
GEMM_N = 512


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'blas')} {blas.get('version', '?')}"


def load_record() -> dict:
    """1-minute load average against the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {"load1": load1, "noisy_host": load1 > nproc}


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_version(),
        "platform": platform.platform(),
    }


def llc_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (0 when unreadable)."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * unit)
    return best


def gemm_gflops(reps: int = 7) -> float:
    """Best-of-``reps`` float64 GEMM rate at 512^3 (the host's 1-thread
    BLAS peak as NumPy reaches it)."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(GEMM_N, GEMM_N))
    b = rng.normal(size=(GEMM_N, GEMM_N))
    out = np.empty_like(a)
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = max(best, 2.0 * GEMM_N ** 3 / (time.perf_counter() - t0))
    return best / 1e9


def stream_gbps(quick: bool, reps: int = 3) -> tuple[float, dict]:
    """Copy bandwidth over arrays of at least four times the LLC.

    Returns the best rate [GB/s, computed as 2 x array bytes per copy]
    and the sizes used.  The array is capped at a quarter of free memory
    (and at 64 MiB in quick mode); ``capped`` says when that bit.
    """
    llc = llc_bytes()
    want = max(4 * llc, 64 << 20)
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    nbytes = min(want, free // 4, (64 << 20) if quick else want)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = max(best, 2.0 * src.nbytes / (time.perf_counter() - t0))
    return best / 1e9, {"llc_bytes": llc, "array_bytes": int(src.nbytes),
                        "capped": nbytes < want}
