"""Record of the machine and libraries a benchmark run measured on.

Called inside a pass interpreter after numpy and scipy are loaded, so the
BLAS thread counts read back are the ones the measured code used.
"""

import ctypes
import os
import platform
import sys


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(base, entry, "type")) as handle:
                kind = handle.read().strip()
            with open(os.path.join(base, entry, "size")) as handle:
                size = handle.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads():
    """Thread count reported by each OpenBLAS library mapped into this process."""
    counts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return counts
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def describe():
    import numpy
    import scipy

    def blas_of(config):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_of(scipy.show_config(mode="dicts")),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }
