"""Shared data model: feature matrices, pool bookkeeping, seeded randomness, selection config."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Row norms must sit within this tolerance of 1 for a matrix flagged unit_norm.
UNIT_NORM_TOL = 1e-6
# Re-normalizing an already unit-norm matrix must be a no-op within this tolerance.
IDEMPOTENCE_TOL = 1e-12


class DegenerateInputError(ValueError):
    """Structurally valid input that is numerically unusable (e.g. a zero-norm row)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DegeneratePartitionError(ValueError):
    """More classes requested than the data can support."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int, learning_rate: float):
        super().__init__(message)
        self.epoch = epoch
        self.learning_rate = learning_rate


class UndefinedCorrelationError(ValueError):
    """Correlation requested between inputs where at least one has zero variance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Rng:
    """Named-stream deterministic randomness.

    The pair (seed, stream) fully determines the value sequence; generator()
    always replays the stream from its start, so draw everything you need from
    one generator instance.
    """

    seed: int
    stream: str = ""

    def derive(self, name: str) -> "Rng":
        """Child stream: derive("rotation") on (7, "cycle-2") -> (7, "cycle-2/rotation")."""
        if not name:
            raise ValueError("stream name must be non-empty")
        return Rng(self.seed, f"{self.stream}/{name}" if self.stream else name)

    def key(self) -> int:
        """Stable 64-bit key for (seed, stream); platform-independent."""
        digest = hashlib.blake2b(
            f"{self.seed}:{self.stream}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.key())


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Immutable (n, d) float64 matrix; rows are samples.

    unit_norm advertises that every row has L2 norm 1 within UNIT_NORM_TOL,
    and is validated at construction. The underlying array is read-only.
    """

    data: np.ndarray
    unit_norm: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 1 or d < 1:
            raise ValueError(f"feature matrix must be non-empty, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "data", _readonly(data))
        if self.unit_norm:
            norms = np.linalg.norm(self.data, axis=1)
            off = np.abs(norms - 1.0)
            if np.any(off > UNIT_NORM_TOL):
                row = int(np.argmax(off))
                raise ValueError(
                    f"unit_norm flag set but row {row} has norm {norms[row]:.9f}"
                )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def rows(self, indices) -> "FeatureMatrix":
        """Sub-matrix restricted to the given row indices (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("row selection must be a non-empty 1-D index list")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ValueError("row selection out of range")
        return FeatureMatrix(self.data[idx], unit_norm=self.unit_norm)


def normalize_rows(x: FeatureMatrix) -> FeatureMatrix:
    """L2-normalize every row.

    Raises DegenerateInputError naming the first zero-norm row. Idempotent on
    already-normalized input within IDEMPOTENCE_TOL.
    """
    norms = np.linalg.norm(x.data, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        row = int(np.argmax(zero))
        raise DegenerateInputError(f"row {row} has zero norm", row=row)
    return FeatureMatrix(x.data / norms[:, None], unit_norm=True)


@dataclass(frozen=True, eq=False)
class PoolState:
    """Disjoint labeled/unlabeled index sets covering range(n_total), plus a cycle counter."""

    n_total: int
    labeled: np.ndarray
    unlabeled: np.ndarray
    cycle: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labeled", _readonly(np.asarray(self.labeled, np.int64)))
        object.__setattr__(self, "unlabeled", _readonly(np.asarray(self.unlabeled, np.int64)))


def make_pool(n_total: int, initial_labeled) -> PoolState:
    """Fresh pool at cycle 0 with the given labeled indices."""
    if n_total < 1:
        raise ValueError("n_total must be positive")
    lab = np.asarray(initial_labeled, dtype=np.int64).ravel()
    if lab.size and (lab.min() < 0 or lab.max() >= n_total):
        raise ValueError("labeled index out of range")
    if np.unique(lab).size != lab.size:
        raise ValueError("labeled indices contain duplicates")
    lab = np.sort(lab)
    unlab = np.setdiff1d(np.arange(n_total, dtype=np.int64), lab)
    return PoolState(n_total=n_total, labeled=lab, unlabeled=unlab, cycle=0)


def commit_acquisition(pool: PoolState, selected) -> PoolState:
    """Move selected indices from unlabeled to labeled and advance the cycle."""
    sel = np.asarray(selected, dtype=np.int64).ravel()
    if sel.size == 0:
        raise ValueError("selection is empty")
    if np.unique(sel).size != sel.size:
        raise ValueError("selection contains duplicates")
    if not np.all(np.isin(sel, pool.unlabeled)):
        bad = sel[~np.isin(sel, pool.unlabeled)][0]
        raise ValueError(f"index {bad} is not in the unlabeled pool")
    return PoolState(
        n_total=pool.n_total,
        labeled=np.union1d(pool.labeled, sel),
        unlabeled=np.setdiff1d(pool.unlabeled, sel),
        cycle=pool.cycle + 1,
    )


# Window rule for hashed density: each chunk also looks at the preceding chunk.
WINDOW_WITH_PREVIOUS = "with-previous"
WINDOW_OWN_CHUNK = "own-chunk-only"
# Reference set for the per-cluster greedy: labeled plus everything selected so
# far this acquisition, or labeled plus the current cluster's picks only.
REFERENCE_GLOBAL = "global"
REFERENCE_CLUSTER_LOCAL = "cluster-local"


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs for one acquisition round.

    budget: number of samples to pick this round.
    n_buckets: hash bucket count (even) for density estimation.
    n_breaks: number of density classes for the natural-breaks split.
    temperature: softmax temperature for inverse-size budget ratios.
    expand_factor: candidate multiplier for the expand-then-squeeze combiner.
    """

    budget: int
    n_buckets: int = 100
    n_breaks: int = 4
    temperature: float = 0.25
    expand_factor: float = 2.0
    window: str = WINDOW_WITH_PREVIOUS
    reference: str = REFERENCE_GLOBAL

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.n_buckets < 2 or self.n_buckets % 2 != 0:
            raise ValueError("n_buckets must be a positive even integer")
        if self.n_breaks < 1:
            raise ValueError("n_breaks must be at least 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if self.expand_factor < 1.0:
            raise ValueError("expand_factor must be at least 1")
        if self.window not in (WINDOW_WITH_PREVIOUS, WINDOW_OWN_CHUNK):
            raise ValueError(f"unknown window rule {self.window!r}")
        if self.reference not in (REFERENCE_GLOBAL, REFERENCE_CLUSTER_LOCAL):
            raise ValueError(f"unknown reference rule {self.reference!r}")
