"""Print, as one JSON object, the software the CLI runs on.

Run with the same interpreter and environment as the CLI invocations:
it reports the Python, numpy and scipy versions, the BLAS each of numpy
and scipy links (they carry separate OpenBLAS copies) with its thread
count, and the file ``gneumann`` is imported from, so the benchmark can
refuse to time an installed copy instead of the checkout's sources.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled in ``<package>.libs``."""
    libdir = os.path.dirname(package.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(package) -> dict:
    try:
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        info = {}
    return {
        "vendor": info.get("name"),
        "version": info.get("version"),
        "threads": _openblas_threads(package),
    }


def collect() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    import gneumann

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gneumann_file": gneumann.__file__,
    }


if __name__ == "__main__":
    print(json.dumps(collect(), sort_keys=True))
