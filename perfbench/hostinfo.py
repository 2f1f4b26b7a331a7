"""Host and library facts recorded with every benchmark run."""
from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import sys
from pathlib import Path


def environment() -> dict:
    """Interpreter, numpy, BLAS and its thread count, numba, CPUs and caches."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "l2_bytes": _sysconf_cache(191),  # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": _sysconf_cache(194),  # _SC_LEVEL3_CACHE_SIZE
    }
    if not env["numba"]:
        env["note"] = "numba absent: engine._jump_pass_compiled is not measured"
    return env


def blas_threads() -> int | None:
    """OpenBLAS's thread count in this process, from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _sysconf_cache(name: int) -> int | None:
    if sys.platform != "linux":
        return None
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    size = libc.sysconf(name)
    return size if size > 0 else None
