"""Names the BLAS the tests ran on in pytest's terminal summary.

Which bits the bit-exact tests see depends on the BLAS build and its thread
count, so the summary gives the OpenBLAS core and thread count that numpy's
bundled library reports at run time, and the kernel thread count
dacs.core._worker_count gives beside it. pytest prints the summary under -q
too, where it drops the report header.
"""

import ctypes
import glob
import os

import numpy as np

import dacs.core


def openblas_runtime() -> tuple[str, str]:
    """(core name, thread count) of the OpenBLAS numpy loaded, each 'unknown' if it does not say."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return (corename() or b"unknown").decode(), str(threads())
    return "unknown", "unknown"


def pytest_terminal_summary(terminalreporter):
    core, threads = openblas_runtime()
    terminalreporter.write_line(
        f"OpenBLAS core: {core}, OpenBLAS threads: {threads}, dacs kernel threads: {dacs.core._worker_count()}"
    )
