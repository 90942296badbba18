"""Reference kernel: fixed numpy work that gauges the machine's speed during a run.

On a shared host the speed a process gets drifts over minutes, as other
tenants come and go: the same dacs operation took 20-40% longer in some runs
than in others. The harness runs this kernel before every operation and
reports the run's fastest operation over the kernel's fastest pass
(``op_rel``), which cancels most of that drift; the wall seconds go into the
run's record as well.

The kernel has the character of the dacs hot loops (random normal rows,
a sort, a gather and windowed 16-D dot products) with a working set of a few
MB, so that it does not raise the process's peak memory. It never calls dacs:
a change to dacs moves only the numerator of ``op_rel``.
"""

import time

import numpy as np

ROWS = 16384
DIM = 16
BLOCK = 128
WINDOW = 1024
# Passes timed before each operation; each pass is one sample.
PASSES_PER_OP = 3


def reference_kernel() -> float:
    """One pass of the fixed work; returns its result so the work cannot be skipped."""
    x = np.random.default_rng(0).standard_normal((ROWS, DIM))
    g = x[np.argsort(x[:, 0])]
    best = -np.inf
    for start in range(0, ROWS, BLOCK):
        window = g[max(0, start - WINDOW) : start + WINDOW]
        best = max(best, float((g[start : start + BLOCK] @ window.T).max()))
    return best


def time_reference() -> list:
    """Wall seconds of each of PASSES_PER_OP passes of the reference kernel."""
    samples = []
    for _ in range(PASSES_PER_OP):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    return samples
