"""Per-sample local density.

Two estimators share one profile type: an exact k-nearest-neighbor mean
distance (quadratic, used as a reference), and a fast path that bucket-hashes
unit-norm features with a random rotation, sorts buckets into equal-size
chunks, and sums sigmoid-weighted cosine similarity inside a sliding window of
adjacent chunks. The fast path never compares samples more than two chunks
apart, but a chunk holds n/k rows, so at a fixed bucket count k a pass scores
about 2n^2/k pairs: quadratic in the pool, not linear (ROADMAP item 1 has the
timings). Small chunks are multiplied in stacks, one BLAS call per chunk
inside one np.matmul, and the hash in row blocks. Only the rows of a large
chunk one product multiplies depend on BLAS's thread count: row tiles with
BLAS on one thread, the whole chunk otherwise (see lsh_density). pool_density
is its one front-end: selection, the simulator and the CLI all estimate
density through it. It reads the pool's rows in place, so a pass holds no
pool-sized float array beside the pool: each hash block, stack and chunk
gathers the rows it multiplies.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FeatureMatrix,
    Rng,
    RowView,
    _blas_single_threaded,
    _parallel_ranges,
    _readonly,
    check_bucket_count,
)

METRIC_EUCLIDEAN = "euclidean"
METRIC_COSINE = "cosine-distance"

# Rows of a chunk's similarity block that lsh_density weighs (at least), and
# with BLAS on one thread multiplies, at once; keeps buffers cache-sized. A
# multiple of 12: on x86-64 OpenBLAS 0.3.31 (SkylakeX kernels), 12- to
# 360-row tiles gave the untiled product's bits, and 16-, 32-, 40-, 64- and
# 128-row did not.
_ROW_TILE = 48
# Float64 elements of the chunk products lsh_density stacks into one matmul
# (a chunk's product larger than this is made alone).
_STACK_SCRATCH = 1 << 16
# Rows _assign_buckets projects at once; a multiple of 12, as _ROW_TILE.
_HASH_BLOCK = 4092


class DensityConvention(enum.Enum):
    # Higher value = sparser neighborhood (a distance).
    DISTANCE_BASED = "distance-based"
    # Higher value = denser neighborhood (a similarity mass).
    SIMILARITY_BASED = "similarity-based"


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Per-sample density values aligned to an index list."""

    indices: np.ndarray
    values: np.ndarray
    convention: DensityConvention
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "indices", _readonly(np.asarray(self.indices, np.int64)))
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, np.float64)))
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")

    def lookup(self, indices) -> np.ndarray:
        """Values for the given sample indices (indices field must be sorted)."""
        idx = np.asarray(indices, np.int64)
        pos = np.searchsorted(self.indices, idx)
        if np.any(pos >= self.indices.size) or np.any(self.indices[np.minimum(pos, self.indices.size - 1)] != idx):
            raise ValueError("density profile does not cover all requested indices")
        return self.values[pos]


@dataclass(frozen=True, eq=False)
class LshAssignment:
    """Bucket ids per sample plus the stable (bucket, index) sort order and chunk size."""

    bucket_ids: np.ndarray
    sorted_order: np.ndarray
    chunk_size: int
    n_buckets: int
    rotation_seed: int

    def __post_init__(self):
        object.__setattr__(self, "bucket_ids", _readonly(np.asarray(self.bucket_ids, np.int64)))
        object.__setattr__(self, "sorted_order", _readonly(np.asarray(self.sorted_order, np.int64)))
        n, order = self.bucket_ids.size, self.sorted_order
        # lsh_density writes the value of row order[i] once per i, so an order
        # that repeats a row would leave another row unwritten.
        if order.size != n or (n and (order.min() < 0 or order.max() >= n or np.bincount(order).max() > 1)):
            raise ValueError("sorted_order must be a permutation of all samples")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


def exact_knn_density(
    x: FeatureMatrix,
    k_nn: int,
    metric: str = METRIC_EUCLIDEAN,
    block: int = 512,
) -> DensityProfile:
    """Mean distance to the k_nn nearest other samples (self excluded).

    Quadratic in n; rows are processed in blocks to bound memory. Distance-based
    convention: larger values mean sparser neighborhoods.
    """
    n = x.n
    if not 1 <= k_nn < n:
        raise ValueError(f"k_nn must be in [1, n); got k_nn={k_nn}, n={n}")
    if metric not in (METRIC_EUCLIDEAN, METRIC_COSINE):
        raise ValueError(f"unknown metric {metric!r}")
    X = x.data
    if metric == METRIC_COSINE:
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cosine distance undefined for zero-norm rows")
        X = X / norms[:, None]
    else:
        sq = np.einsum("ij,ij->i", X, X)
    values = np.empty(n, dtype=np.float64)
    for start in range(0, n, block):
        stop = min(n, start + block)
        if metric == METRIC_EUCLIDEAN:
            d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop] @ X.T)
            dist = np.sqrt(np.maximum(d2, 0.0))
        else:
            dist = 1.0 - X[start:stop] @ X.T
            np.clip(dist, 0.0, 2.0, out=dist)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        nearest = np.partition(dist, k_nn - 1, axis=1)[:, :k_nn]
        values[start:stop] = nearest.mean(axis=1)
    return DensityProfile(
        indices=np.arange(n, dtype=np.int64),
        values=values,
        convention=DensityConvention.DISTANCE_BASED,
        params={"estimator": "exact-knn", "k_nn": k_nn, "metric": metric},
    )


def _assign_buckets(x: FeatureMatrix | RowView, rotation: np.ndarray) -> np.ndarray:
    """Bucket id per row: argmax over the concatenated [R^T z; -R^T z] responses.

    The concatenation is never built. Its argmax is the first argmax of
    R^T z, or, shifted by k/2, the first argmin; negation is exact, and a tie
    between the two goes to the first half, as argmax over the concatenation
    sends it. The rows are gathered and projected in blocks of _HASH_BLOCK,
    so scratch does not grow with the pool. A block's projection can differ
    from the whole one in a last bit; the ids are the contract, and the tests
    check them against reference_assign_buckets, which projects whole.
    """
    n = x.n
    ids = np.empty(n, dtype=np.int64)
    for a in range(0, n, _HASH_BLOCK):
        proj = x.take(np.arange(a, min(n, a + _HASH_BLOCK))) @ rotation
        rows = np.arange(proj.shape[0])
        hi = proj.argmax(axis=1)
        lo = proj.argmin(axis=1)
        ids[a : a + _HASH_BLOCK] = np.where(proj[rows, hi] >= -proj[rows, lo], hi, lo + proj.shape[1])
    return ids


def lsh_assign(x: FeatureMatrix | RowView, k: int, rng: Rng) -> LshAssignment:
    """Hash unit-norm rows into k buckets with one fixed random rotation.

    The rotation has shape (d, k/2) with i.i.d. standard normal entries drawn
    from the "rotation" stream; each column contributes an antipodal bucket
    pair. Samples are then ordered stably by (bucket id, original index) and
    split into chunks of m = max(1, floor(n/k)). A pool smaller than k gets
    chunk size 1, so each window holds at most one neighbour; that case warns.
    """
    if not x.unit_norm:
        raise ValueError("bucket hashing requires unit-norm features; normalize first")
    check_bucket_count(k)
    stream = rng.derive("rotation")
    rotation = stream.generator().standard_normal((x.d, k // 2))
    bucket_ids = _assign_buckets(x, rotation)
    sorted_order = np.argsort(bucket_ids, kind="stable")
    m = max(1, x.n // k)
    if x.n < k:
        warnings.warn(
            f"pool of n={x.n} rows is smaller than k={k} buckets; chunk size is 1, "
            "so each density window holds at most one neighbour"
        )
    return LshAssignment(
        bucket_ids=bucket_ids,
        sorted_order=sorted_order,
        chunk_size=m,
        n_buckets=k,
        rotation_seed=stream.key(),
    )


def lsh_density(
    x: FeatureMatrix | RowView,
    assignment: LshAssignment,
    window: str = "with-previous",
) -> DensityProfile:
    """Windowed sigmoid-weighted cosine similarity mass per sample.

    For each sample, sums sigmoid(c_ij) * c_ij over its window (self excluded):
    its own chunk and the chunk before it, as Reformer's chunked attention
    looks back one chunk; chunk 0 has none before it. c_ij is the cosine
    similarity of the unit-norm rows. Similarity-based convention: larger
    values mean denser neighborhoods. window names that one rule and refuses
    any other value. It stays a parameter only because the benchmark's pair
    counter (perfbench/tracing.py) reads it from the call's bound arguments;
    it can go at the next change to the benchmark (ROADMAP item 9).

    Each chunk's similarities against its window come from one matrix product
    into a reused buffer. Small chunks cost more in per-call overhead than in
    arithmetic, so consecutive full chunks with full windows are multiplied
    as one stack: one np.matmul of their (g, m, d) rows against (g, d, w)
    strided views of their overlapping windows, with g as large as
    _STACK_SCRATCH elements of products allow. numpy hands BLAS each slice
    of a stack with the shapes and strides of the one-chunk call (the fact
    model.train_stacked relies on), so each slice is the same product, bit
    for bit. A chunk whose product alone exceeds the bound (990-row chunks
    on a 99k-row pool) is multiplied alone, the one step that depends on
    BLAS's thread count: in _ROW_TILE-row tiles when BLAS runs one thread,
    each with the bits of the whole product's rows, and whole under a
    multithreaded BLAS, which splits a product over its threads by its
    shape, so tiles there give other bits. Chunk 0's own-chunk product
    Z Z^T stays whole, since numpy hands it to BLAS syrk, not gemm, and
    tiles of it moved 2 of 990 values by an ulp; it is made first, on the
    calling thread. No
    sorted copy Z of the rows is made: a stack, or a chunk taken in tiles,
    gathers its rows and the window before them, straight from the pool
    when x is a RowView, into a row buffer with Z's row stride, so each
    product keeps its shapes, strides and bits.
    The weighting runs over row tiles in a reused scratch buffer, summed
    straight into the output; a tile never splits a row. A large pool
    splits its chunks into contiguous runs, one per thread (see
    core._parallel_ranges for how many), each with its own three buffers;
    no value depends on which thread or stack takes a chunk.
    """
    if not x.unit_norm:
        raise ValueError("windowed density requires unit-norm features; normalize first")
    if window != "with-previous":
        raise ValueError(f"unknown window rule {window!r}; the one rule is 'with-previous'")
    n = x.n
    if assignment.sorted_order.size != n:
        raise ValueError("assignment does not match the feature matrix")
    params = {
        "estimator": "lsh-window",
        "n_buckets": assignment.n_buckets,
        "chunk_size": assignment.chunk_size,
        "rotation_seed": assignment.rotation_seed,
    }
    indices = np.arange(n, dtype=np.int64)
    if n < 2:
        warnings.warn("density over fewer than 2 samples is degenerate; returning 0")
        return DensityProfile(
            indices=indices,
            values=np.zeros(n),
            convention=DensityConvention.SIMILARITY_BASED,
            params=params,
        )
    m, d = assignment.chunk_size, x.d
    n_chunks = -(-n // m)
    width = min(n, 2 * m)  # widest window
    own = min(m, n)  # rows of chunk 0
    # Chunks whose products stack: full chunks with a full window. Chunk 0
    # has no previous one, so it is made apart; a remainder chunk is short.
    stack_last = n // m  # one past the last full chunk
    per_stack = max(1, _STACK_SCRATCH // (own * width))
    # Rows of a chunk multiplied at once.
    step = _ROW_TILE if own * width > _STACK_SCRATCH and _blas_single_threaded() else own
    tile_rows = max(_ROW_TILE, _STACK_SCRATCH // width)  # rows weighed at once
    product_cap = per_stack * step * width
    scratch_cap = min(product_cap, tile_rows * width)  # a tile never outgrows its product
    gather_cap = min(n, (per_stack + 1) * m) * d  # a stack's chunks and the window before them
    vals_sorted = np.empty(n, dtype=np.float64)

    def gather(lo, hi, buf) -> np.ndarray:
        # Sorted rows lo .. hi - 1, with the row stride of a sorted copy.
        Z = buf[: (hi - lo) * d].reshape(hi - lo, d)
        return x.take(assignment.sorted_order[lo:hi], out=Z)

    def score_rows(Z, s, rows, lo, w, g, product, scratch) -> None:
        # Z holds sorted rows lo on; row block j < g multiplies rows s + j*m on
        # by its window lo + j*m on, a strided view, as the windows overlap.
        windows = np.lib.stride_tricks.as_strided(
            Z, shape=(g, w, d), strides=(m * Z.strides[0], *Z.strides), writeable=False
        )
        sims = product[: g * rows * w].reshape(g, rows, w)
        np.matmul(Z[s - lo : s - lo + g * rows].reshape(g, rows, d), windows.transpose(0, 2, 1), out=sims)
        diag = np.arange(rows)
        sims[:, diag, diag + (s - lo)] = 0.0  # self term contributes nothing
        block = sims.reshape(g * rows, w)
        for t in range(0, g * rows, tile_rows):
            tile = block[t : t + tile_rows]
            buf = scratch[: tile.size].reshape(tile.shape)
            # (1 / (1 + exp(-c))) * c: sigmoid(c) * c in that operation order.
            # Cosines lie in [-1, 1], so exp cannot overflow.
            np.negative(tile, out=buf)
            np.exp(buf, out=buf)
            np.add(buf, 1.0, out=buf)
            np.divide(1.0, buf, out=buf)
            np.multiply(buf, tile, out=buf)
            buf.sum(axis=1, out=vals_sorted[s + t : s + t + tile.shape[0]])

    def chunks(a: int, b: int, mem: np.ndarray) -> None:
        # Chunks 1 + a .. b, with one product, one scratch tile and one row
        # buffer per thread, reused for every stack or chunk.
        product, scratch, rows_buf = np.split(mem, [product_cap, product_cap + scratch_cap])
        c, last = 1 + a, 1 + b
        while c < last:
            s, e = c * m, min(n, (c + 1) * m)
            lo = s - m
            g = min(per_stack, min(last, stack_last) - c) if c < stack_last else 1
            Z = gather(lo, min(n, (c + g) * m), rows_buf)
            for t in range(s, e, step):
                score_rows(Z, t, min(step, e - t), lo, e - lo, g, product, scratch)
            c += g

    # Chunk 0's own-chunk product, whole, on this thread.
    Z = gather(0, own, np.empty(own * d))
    score_rows(Z, 0, own, 0, own, 1, np.empty(own * own), np.empty(min(own, tile_rows) * own))
    _parallel_ranges(n_chunks - 1, n * width, product_cap + scratch_cap + gather_cap, chunks)
    values = np.empty(n, dtype=np.float64)
    values[assignment.sorted_order] = vals_sorted
    return DensityProfile(
        indices=indices,
        values=values,
        convention=DensityConvention.SIMILARITY_BASED,
        params=params,
    )


def pool_density(
    features: FeatureMatrix,
    indices: np.ndarray,
    n_buckets: int,
    rng: Rng,
) -> DensityProfile:
    """Hash the given rows into n_buckets and estimate their window density.

    The profile is keyed by sample index: value i belongs to indices[i], and
    equals, bit for bit, what lsh_assign and lsh_density give on
    features.rows(indices). No such copy is made: both read the rows in
    place through a RowView, which gathers each hash block, stack and chunk
    as a copy would hold it, so the pass adds no pool-sized float array.
    """
    sub = RowView(features, indices)
    local = lsh_density(sub, lsh_assign(sub, n_buckets, rng))
    return DensityProfile(
        indices=indices,
        values=local.values,
        convention=local.convention,
        params=local.params,
    )
