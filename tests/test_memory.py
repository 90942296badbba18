"""Working-set bounds of the largest temporaries of one dacs select.

Each test measures the tracemalloc peak of one call and bounds it by what the
shapes allow: half of what a replaced kernel's temporaries took, or the
buffers the kernel is meant to hold and no more. tracemalloc sees the
allocations of every thread, so the bounds hold with the kernels on threads.
"""

import json
import tracemalloc

import numpy as np
import pytest
from embedding_writers import write_embeddings

import dacs.cli
import dacs.core
from dacs.core import FeatureMatrix, Rng, RowView, normalize_rows
from dacs.density import _ROW_TILE, lsh_assign, lsh_density, pool_density
from dacs.formats import read_embeddings
from dacs.selection import _CAND_TILE, _REF_BLOCK, kcenter_greedy

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


def test_kcenter_first_pass_is_tiled(monkeypatch):
    # Two threads even on one CPU: 20M scored pairs are past the threshold.
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: 2)
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_window_density_holds_one_product_per_thread(monkeypatch, workers):
    # The whole chunk products a threaded BLAS gets, whatever BLAS runs here.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)
    n, d, k = 50_000, 16, 100
    x = unit_rows(n, d, 2)
    a = lsh_assign(x, k, Rng(0))
    m = a.chunk_size
    peak = traced_peak(lambda: lsh_density(x, a))
    # The output, its sorted copy and the indices; then per thread one m x 2m
    # chunk product, one scratch tile of its rows and the 2m rows it gathers,
    # plus 1 MB for Python objects. A sorted copy of the pool (6.4 MB here),
    # or one more chunk-sized temporary on any thread (4 MB), would break
    # the bound.
    pool_sized = 3 * n * FLOAT
    per_thread = (m * 2 * m + _ROW_TILE * 2 * m + 2 * m * d) * FLOAT
    assert peak < pool_sized + workers * per_thread + 2**20


@pytest.mark.parametrize("workers", [1, 3])
def test_one_blas_thread_tiles_the_window_products_and_the_hash(monkeypatch, workers):
    # With BLAS on one thread, lsh_density multiplies a chunk too large to
    # stack in _ROW_TILE-row tiles, and lsh_assign projects in row blocks.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)
    n, d, k = 50_000, 16, 100
    x = unit_rows(n, d, 2)
    a = lsh_assign(x, k, Rng(0))
    m = a.chunk_size
    peak = traced_peak(lambda: lsh_density(x, a))
    # The pool-sized arrays as above, chunk 0's m x m own-chunk product and
    # its m rows, then per thread a tile of the product, a scratch tile and
    # the 2m rows it gathers, plus 1 MB. A sorted copy of the pool (6.4 MB
    # here), or one m x 2m chunk product (4 MB), would break the bound.
    pool_sized = 3 * n * FLOAT
    per_thread = (2 * _ROW_TILE * 2 * m + 2 * m * d) * FLOAT
    assert peak < pool_sized + (m * m + m * d) * FLOAT + workers * per_thread + 2**20
    # The whole hash held the n x k/2 projection.
    peak = traced_peak(lambda: lsh_assign(x, k, Rng(0)))
    assert peak < n * (k // 2) * FLOAT / 2


def force_64_threads(monkeypatch):
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: 64)


def test_kcenter_scratch_fits_the_budget_on_64_threads(monkeypatch):
    force_64_threads(monkeypatch)
    n_cand, n_ref, d = 20_000, 1_000, 16
    x = unit_rows(n_cand + n_ref, d, 0)
    cand, ref = np.arange(n_cand), np.arange(n_cand, n_cand + n_ref)
    peak = traced_peak(lambda: kcenter_greedy(cand, ref, 1, x))
    # The gathered candidate rows and 4 candidate-sized vectors, plus the
    # whole scratch budget and 1 MB. One 384 x 1,000 buffer for each of the
    # 53 tiles (163 MB) would break the bound.
    gathered = n_cand * (d + 4) * FLOAT
    assert peak < gathered + dacs.core._SCRATCH_BUDGET * FLOAT + 2**20


def test_window_density_fits_the_budget_on_64_threads(monkeypatch):
    force_64_threads(monkeypatch)
    n, d, k = 50_000, 16, 100
    x = unit_rows(n, d, 2)
    a = lsh_assign(x, k, Rng(0))
    peak = traced_peak(lambda: lsh_density(x, a))
    # As above, with the whole scratch budget in place of the per-thread
    # buffers, gathered rows included. One m x 2m product for each of the
    # 100 chunks (400 MB), or each of 64 threads (256 MB), would break the
    # bound; so would a sorted copy of the pool (6.4 MB here) when a threaded
    # BLAS lets the buffers fill the budget.
    pool_sized = 3 * n * FLOAT
    assert peak < pool_sized + dacs.core._SCRATCH_BUDGET * FLOAT + 2**20


def test_unit_norm_check_holds_no_row_sized_temporary():
    n, d = 50_000, 16
    data = unit_rows(n, d, 4).data
    peak = traced_peak(lambda: FeatureMatrix(data, unit_norm=True))
    # The n x d finite mask (bools) and a few n-sized vectors, plus 1 MB. An
    # n x d float64 temporary, as np.linalg.norm(axis=1) makes (6.4 MB
    # here), would break the bound.
    assert peak < n * d + 2**20


def test_reading_embeddings_drops_the_raw_bytes(tmp_path):
    n, d = 50_000, 64
    path = tmp_path / "pool.bin"
    write_embeddings(path, unit_rows(n, d, 5))
    peak = traced_peak(lambda: read_embeddings(path))
    # The float64 matrix and, while it is converted, its float32 payload,
    # plus 1 MB. The payload kept through validation beside the n x d finite
    # mask (3.2 MB here), or one more float64 pool (25.6 MB), would break
    # the bound.
    assert peak < n * d * (FLOAT + 4) + 2**20


def test_pool_density_copies_no_indexed_rows(monkeypatch):
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: 1)
    n, d = 50_000, 64
    x = unit_rows(n, d, 7)
    idx = np.arange(1, n, 2)  # half the rows, with gaps
    peak = traced_peak(lambda: pool_density(x, idx, 100, Rng(0)))
    # The hash blocks, the window buffers and a few index-sized vectors
    # stay below one copy of the indexed rows (12.8 MB here), which
    # pool_density made before it read them in place.
    assert peak < idx.size * d * FLOAT


def test_a_row_view_gathers_straight_into_out():
    n, d = 40_000, 16
    x = unit_rows(n, d, 8)
    view = RowView(x, np.arange(1, n, 2))
    positions = np.arange(view.n)[::-1].copy()
    out = np.empty((view.n, d))
    peak = traced_peak(lambda: view.take(positions, out=out))
    # The gathered row numbers (160 kB here) and no more. np.take's default
    # mode="raise" buffers a temporary the size of out (2.56 MB here).
    assert peak < out.nbytes / 4
    assert np.array_equal(out, x.data[view.indices[positions]])


def test_a_select_holds_one_copy_of_the_pool(monkeypatch, tmp_path):
    # One thread, so one thread's scratch counts.
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: 1)
    n, d = 50_000, 64
    pool, labeled, out = tmp_path / "pool.bin", tmp_path / "labeled.txt", tmp_path / "out.json"
    write_embeddings(pool, unit_rows(n, d, 6))
    labeled.write_text("".join(f"{i}\n" for i in range(0, n, 100)))  # 1% labeled
    argv = ["select", "--embeddings", str(pool), "--labeled", str(labeled), "--budget", "200",
            "--strategy", "dacs", "--out", str(out)]
    peak = traced_peak(lambda: dacs.cli.main(argv))
    clusters = json.loads(out.read_text())["diagnostics"]["clusters"]
    m = (n - n // 100) // 100  # chunk rows at 100 buckets
    # The pool; chunk 0's m x m product; one k-center tile; the largest
    # class's gathered rows; plus 1 MB. A second copy of the pool (25.6 MB
    # here), such as the unlabeled rows copied out for the density pass,
    # would break the bound.
    bound = (
        n * d
        + m * m
        + _CAND_TILE * _REF_BLOCK
        + max(c["size"] for c in clusters) * d
    ) * FLOAT + 2**20
    assert peak < bound
