"""Per-sample local density.

Two estimators share one profile type: an exact k-nearest-neighbor mean
distance (quadratic, used as a reference), and a fast path that bucket-hashes
unit-norm features with a random rotation, sorts buckets into equal-size
chunks, and sums sigmoid-weighted cosine similarity inside a sliding window of
adjacent chunks. The fast path never compares samples more than two chunks
apart, but a chunk holds n/k rows, so at a fixed bucket count k a pass scores
about 2n^2/k pairs: quadratic in the pool, not linear (ROADMAP item 1 has the
timings). Small chunks are multiplied in stacks, one BLAS call per chunk
inside one np.matmul, a large chunk in row tiles, and the hash in row blocks;
each product's shape depends on the chunk's shape alone. pool_density
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
    _parallel_ranges,
    _readonly,
    check_bucket_count,
    normalize_rows,
)

METRIC_EUCLIDEAN = "euclidean"
METRIC_COSINE = "cosine-distance"

# Rows of a chunk too large to stack that lsh_density multiplies at once,
# chunk 0's included; keeps buffers cache-sized. A multiple of 12: on x86-64
# OpenBLAS 0.3.31 (SkylakeX kernels) on one thread, 12- to 360-row tiles gave
# the untiled gemm's bits, and 16-, 32-, 40-, 64- and 128-row did not.
_ROW_TILE = 48
# Float64 elements of the chunk products lsh_density stacks into one matmul
# (a chunk whose widest window's product is larger is made in tiles).
_STACK_SCRATCH = 1 << 16
# Rows _assign_buckets projects at once; a multiple of 12, as _ROW_TILE.
_HASH_BLOCK = 4092
# Rows whose distances to every row exact_knn_density computes at once.
_EXACT_BLOCK = 512


class DensityConvention(enum.Enum):
    # Higher value = sparser neighborhood (a distance).
    DISTANCE_BASED = "distance-based"
    # Higher value = denser neighborhood (a similarity mass).
    SIMILARITY_BASED = "similarity-based"


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Per-sample density values: value i belongs to the i-th row the pass estimated."""

    values: np.ndarray
    convention: DensityConvention
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, np.float64)))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")


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


def exact_knn_density(x: FeatureMatrix, k_nn: int, metric: str = METRIC_EUCLIDEAN) -> DensityProfile:
    """Mean distance to the k_nn nearest other samples (self excluded).

    Quadratic in n: take gathers the rows as float64, whatever the pool's
    form, and the distances are made _EXACT_BLOCK rows at a time to bound
    memory. Cosine distance reads the rows normalize_rows gives, so a
    zero-norm row raises its DegenerateInputError, naming the row.
    Distance-based convention: larger values mean sparser neighborhoods.
    """
    n = x.n
    if not 1 <= k_nn < n:
        raise ValueError(f"k_nn must be in [1, n); got k_nn={k_nn}, n={n}")
    if metric not in (METRIC_EUCLIDEAN, METRIC_COSINE):
        raise ValueError(f"unknown metric {metric!r}")
    X = (normalize_rows(x) if metric == METRIC_COSINE else x).take(np.arange(n))
    if metric == METRIC_EUCLIDEAN:
        sq = np.einsum("ij,ij->i", X, X)
    values = np.empty(n, dtype=np.float64)
    for start in range(0, n, _EXACT_BLOCK):
        stop = min(n, start + _EXACT_BLOCK)
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
    # Ids below k sort as the narrowest unsigned type that holds k - 1: the
    # same stable order, and up to 16 bits numpy's radix sort gives it.
    sorted_order = np.argsort(bucket_ids.astype(np.min_scalar_type(k - 1)), kind="stable")
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
    for bit. Chunk 0, whose window is its own rows, and a short remainder
    chunk are made alone. When chunks stack, chunk 0 is one whole Z Z^T,
    which numpy hands to BLAS syrk. When one chunk's product with a full
    window exceeds the bound (990-row chunks on a 99k-row pool), every chunk,
    chunk 0 included, is multiplied in _ROW_TILE-row tiles, each a gemm,
    whatever BLAS runs; on one BLAS thread each tile has the bits of the
    whole gemm's rows. No sorted copy Z of the rows is made: a stack or a
    chunk gathers its rows and the window before them, straight from the
    pool when x is a RowView, into a row buffer with Z's row stride, so each
    product keeps its shapes, strides and bits. The sign that sigmoid's
    exp(-c) needs is folded into the product: a stack's or chunk's own rows
    are copied negated, once, into a buffer of their own, and multiplied
    against the windows, so the product holds -c exactly, as round-to-nearest
    is sign-symmetric. exp, +1, 1/x and a multiply by the block then give
    -(sigmoid(c) * c) with no pass to negate c, and each value is written as
    0.0 minus its row sum: S itself, and +0.0 for a row that sums to zero,
    as the unnegated sum is. The one exception is chunk 0 when chunks stack:
    numpy hands its Z Z^T to syrk only with one operand twice, so that block
    is made from the unnegated rows and negated in place. Each product block
    is weighed whole in a scratch buffer of its size and summed straight
    into the output. A large pool splits its chunks into contiguous runs,
    one per thread (see core._parallel_ranges for how many), each with its
    own product, scratch, row and negated-row buffers; no value depends on
    which thread or stack takes a chunk.
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
    if n < 2:
        warnings.warn("density over fewer than 2 samples is degenerate; returning 0")
        return DensityProfile(np.zeros(n), DensityConvention.SIMILARITY_BASED, params)
    m, d = assignment.chunk_size, x.d
    n_chunks = -(-n // m)
    width = min(n, 2 * m)  # widest window
    own = min(m, n)  # rows of a full chunk
    # Chunks whose products stack: full chunks with a full window. Chunk 0
    # has no previous one and a remainder chunk is short, so each is alone.
    stack_last = n // m  # one past the last full chunk
    per_stack = max(1, _STACK_SCRATCH // (own * width))
    # Rows of a chunk multiplied at once.
    step = _ROW_TILE if own * width > _STACK_SCRATCH else own
    product_cap = per_stack * step * width
    gather_cap = min(n, (per_stack + 1) * m) * d  # a stack's chunks and the window before them
    own_cap = min(n, per_stack * own) * d  # a stack's own rows, negated
    vals_sorted = np.empty(n, dtype=np.float64)

    def weigh(sims, t, lo, scratch) -> None:
        # sims holds -c of row block j < g, rows t + j*m on, against its
        # window, rows lo + j*m on; writes -(row sums of sigmoid(c) * c).
        g, rows, w = sims.shape
        diag = np.arange(rows)
        sims[:, diag, diag + (t - lo)] = 0.0  # self term contributes nothing
        block = sims.reshape(g * rows, w)
        buf = scratch[: block.size].reshape(block.shape)
        # (1 / (1 + exp(-c))) * -c: -(sigmoid(c) * c) in that operation order.
        # Cosines lie in [-1, 1], so exp cannot overflow.
        np.exp(block, out=buf)
        np.add(buf, 1.0, out=buf)
        np.divide(1.0, buf, out=buf)
        np.multiply(buf, block, out=buf)
        buf.sum(axis=1, out=vals_sorted[t : t + g * rows])

    def chunks(a: int, b: int, mem: np.ndarray) -> None:
        # Chunks a .. b - 1, with one product, one scratch buffer of its size,
        # one row buffer and one buffer of negated rows per thread, reused for
        # every stack or chunk.
        product, scratch, rows_buf, neg_buf = np.split(
            mem, np.cumsum([product_cap, product_cap, gather_cap])
        )
        c = a
        while c < b:
            s, e = c * m, min(n, (c + 1) * m)
            lo = max(0, s - m)
            g = min(per_stack, min(b, stack_last) - c) if 0 < c < stack_last else 1
            # Sorted rows lo .. hi - 1, with the row stride of a sorted copy.
            hi = min(n, (c + g) * m)
            Z = x.take(assignment.sorted_order[lo:hi], out=rows_buf[: (hi - lo) * d].reshape(hi - lo, d))
            # Row block j < g is scored against sorted rows lo + j*m on: its
            # window, a strided view, as the windows overlap.
            w = e - lo
            windows = np.lib.stride_tricks.as_strided(
                Z, shape=(g, w, d), strides=(m * Z.strides[0], *Z.strides), writeable=False
            ).transpose(0, 2, 1)
            if c == 0 and step == own:
                # Z Z^T, which numpy hands to syrk only with one operand
                # twice, so its block is negated after the product.
                sims = product[: own * w].reshape(1, own, w)
                np.matmul(Z.reshape(1, own, d), windows, out=sims)
                np.negative(sims, out=sims)
                weigh(sims, s, lo, scratch)
            else:
                neg = np.negative(Z[s - lo :], out=neg_buf[: (hi - s) * d].reshape(hi - s, d))
                for t in range(s, e, step):
                    rows = min(step, e - t)
                    sims = product[: g * rows * w].reshape(g, rows, w)
                    np.matmul(neg[t - s : t - s + g * rows].reshape(g, rows, d), windows, out=sims)
                    weigh(sims, t, lo, scratch)
            c += g

    _parallel_ranges(n_chunks, n * width, 2 * product_cap + gather_cap + own_cap, chunks)
    # 0.0 - (-S) is S, and 0.0 - (+-0.0) is +0.0, as the unnegated sum of a
    # row of zeros is: its self term is +0.0.
    values = np.empty(n, dtype=np.float64)
    values[assignment.sorted_order] = np.subtract(0.0, vals_sorted, out=vals_sorted)
    return DensityProfile(values, DensityConvention.SIMILARITY_BASED, params)


def pool_density(
    features: FeatureMatrix,
    indices: np.ndarray,
    n_buckets: int,
    rng: Rng,
) -> DensityProfile:
    """Hash the given rows into n_buckets and estimate their window density.

    Value i belongs to indices[i], and equals, bit for bit, what lsh_assign
    and lsh_density give on a copy of those rows. Both read the rows in
    place through the RowView features.rows(indices), which gathers each
    hash block, stack and chunk as a copy would hold it, so the pass adds
    no pool-sized float array.
    """
    sub = features.rows(indices)
    return lsh_density(sub, lsh_assign(sub, n_buckets, rng))
