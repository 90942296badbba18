"""Working-set bounds of the two largest temporaries of one dacs select.

Each test measures the tracemalloc peak of one call and bounds it by half of
what the replaced kernel's temporaries took for the same shapes, so the bound
follows from the shapes alone.
"""

import tracemalloc

import numpy as np

from dacs.core import FeatureMatrix, Rng, normalize_rows
from dacs.density import lsh_assign
from dacs.selection import kcenter_greedy

FLOAT = 8  # bytes per float64


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_rows(n, d, seed):
    gen = Rng(seed, "memory").generator()
    return normalize_rows(FeatureMatrix(gen.standard_normal((n, d))))


def test_kcenter_first_pass_is_tiled():
    n_cand, n_ref = 20_000, 1_000
    x = unit_rows(n_cand + n_ref, 16, 0)
    cand, ref = np.arange(n_cand), np.arange(n_cand, n_cand + n_ref)
    peak = traced_peak(lambda: kcenter_greedy(cand, ref, 1, x))
    # The untiled pass held one candidates x reference-block product.
    untiled_block = n_cand * min(2048, n_ref) * FLOAT
    assert peak < untiled_block / 2


def test_bucket_hash_builds_no_concatenation():
    n, k = 50_000, 100
    x = unit_rows(n, 16, 1)
    peak = traced_peak(lambda: lsh_assign(x, k, Rng(0)))
    # The concatenating hash held the n x k/2 projection and its n x k
    # concatenation [proj, -proj] at once.
    concatenating = n * (k // 2) * FLOAT + n * k * FLOAT
    assert peak < concatenating / 2
