"""Per-sample local density.

Two estimators share one profile type: an exact k-nearest-neighbor mean
distance (quadratic, used as a reference), and a fast path that bucket-hashes
unit-norm features with a random rotation, sorts buckets into equal-size
chunks, and sums sigmoid-weighted cosine similarity inside a sliding window of
adjacent chunks. The fast path never compares samples more than two chunks
apart, which is what makes it near-linear.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .core import WINDOW_OWN_CHUNK, WINDOW_WITH_PREVIOUS, FeatureMatrix, Rng, _readonly

METRIC_EUCLIDEAN = "euclidean"
METRIC_COSINE = "cosine-distance"

# Rows of a chunk's similarity block that lsh_density weights and sums at once;
# keeps its scratch buffer cache-sized whatever the chunk size.
_ROW_TILE = 64


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
    degenerate: bool = False

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
        n = self.bucket_ids.size
        if self.sorted_order.size != n:
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


def _assign_buckets(z: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Bucket id per row: argmax over the concatenated [R^T z; -R^T z] responses.

    The concatenation is never built. Its argmax is the first argmax of
    R^T z, or, shifted by k/2, the first argmin; negation is exact, and a tie
    between the two goes to the first half, as argmax over the concatenation
    sends it.
    """
    proj = z @ rotation
    rows = np.arange(proj.shape[0])
    hi = proj.argmax(axis=1)
    lo = proj.argmin(axis=1)
    return np.where(proj[rows, hi] >= -proj[rows, lo], hi, lo + proj.shape[1]).astype(np.int64)


def lsh_assign(x: FeatureMatrix, k: int, rng: Rng) -> LshAssignment:
    """Hash unit-norm rows into k buckets with one fixed random rotation.

    The rotation has shape (d, k/2) with i.i.d. standard normal entries drawn
    from the "rotation" stream; each column contributes an antipodal bucket
    pair. Samples are then ordered stably by (bucket id, original index) and
    split into chunks of m = max(1, floor(n/k)). A pool smaller than k gets
    chunk size 1, so each window holds at most one neighbour; that case warns.
    """
    if not x.unit_norm:
        raise ValueError("bucket hashing requires unit-norm features; normalize first")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"bucket count must be a positive even integer, got {k}")
    stream = rng.derive("rotation")
    rotation = stream.generator().standard_normal((x.d, k // 2))
    bucket_ids = _assign_buckets(x.data, rotation)
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
    x: FeatureMatrix,
    assignment: LshAssignment,
    window: str = WINDOW_WITH_PREVIOUS,
) -> DensityProfile:
    """Windowed sigmoid-weighted cosine similarity mass per sample.

    For each sample, sums sigmoid(c_ij) * c_ij over its window (self excluded),
    where c_ij is the cosine similarity of the unit-norm rows. Similarity-based
    convention: larger values mean denser neighborhoods. window="own-chunk-only"
    drops the preceding chunk (ablation switch).

    Each chunk's similarities against its window come from one matrix product.
    The weighting then runs over row tiles of that block inside a single
    reused scratch buffer, and each tile's rows are summed straight into the
    output, so no chunk-sized temporaries are allocated. Tiling never splits a
    row, so every value is the same as weighting and summing the whole block
    at once.
    """
    if not x.unit_norm:
        raise ValueError("windowed density requires unit-norm features; normalize first")
    if window not in (WINDOW_WITH_PREVIOUS, WINDOW_OWN_CHUNK):
        raise ValueError(f"unknown window rule {window!r}")
    n = x.n
    if assignment.sorted_order.size != n:
        raise ValueError("assignment does not match the feature matrix")
    params = {
        "estimator": "lsh-window",
        "n_buckets": assignment.n_buckets,
        "chunk_size": assignment.chunk_size,
        "window": window,
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
            degenerate=True,
        )
    Z = x.data[assignment.sorted_order]
    m = assignment.chunk_size
    n_chunks = -(-n // m)
    vals_sorted = np.empty(n, dtype=np.float64)
    # One scratch tile, reused for every row tile of every chunk: no window is
    # wider than two chunks.
    scratch = np.empty(min(_ROW_TILE, m) * min(n, 2 * m))
    for c in range(n_chunks):
        s, e = c * m, min(n, (c + 1) * m)
        lo = s if (window == WINDOW_OWN_CHUNK or c == 0) else (c - 1) * m
        sims = Z[s:e] @ Z[lo:e].T
        rows = np.arange(e - s)
        sims[rows, rows + (s - lo)] = 0.0  # self term contributes nothing
        for t in range(0, e - s, _ROW_TILE):
            tile = sims[t : t + _ROW_TILE]
            buf = scratch[: tile.size].reshape(tile.shape)
            # (1 / (1 + exp(-c))) * c: sigmoid(c) * c in that operation order.
            # Cosines lie in [-1, 1], so exp cannot overflow.
            np.negative(tile, out=buf)
            np.exp(buf, out=buf)
            np.add(buf, 1.0, out=buf)
            np.divide(1.0, buf, out=buf)
            np.multiply(buf, tile, out=buf)
            buf.sum(axis=1, out=vals_sorted[s + t : s + t + tile.shape[0]])
    values = np.empty(n, dtype=np.float64)
    values[assignment.sorted_order] = vals_sorted
    return DensityProfile(
        indices=indices,
        values=values,
        convention=DensityConvention.SIMILARITY_BASED,
        params=params,
    )
