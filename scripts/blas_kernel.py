#!/usr/bin/env python3
"""Print the CPU kernel of the OpenBLAS bundled with numpy and numpy's SIMD
targets, so that a test log shows which kernels its numbers came from.

    python3 scripts/blas_kernel.py

The kernel reads ``unknown`` when no bundled OpenBLAS or no corename symbol
is found; that is not an error.  ``OPENBLAS_CORETYPE`` selects the kernel
when the library loads, so the name reflects it.
"""
import ctypes
import glob
from pathlib import Path

import numpy as np


def openblas_corename() -> str:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_char_p, []
                name = fn()
                return name.decode().strip() if name else "unknown"
    return "unknown"


if __name__ == "__main__":
    print(f"OpenBLAS core: {openblas_corename()}")
    np.show_runtime()
