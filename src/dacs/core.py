"""Shared data model: feature matrices, pool bookkeeping, seeded randomness, selection config."""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Row norms must sit within this tolerance of 1 for a matrix flagged unit_norm.
UNIT_NORM_TOL = 1e-6
# Re-normalizing an already unit-norm matrix must be a no-op within this tolerance.
IDEMPOTENCE_TOL = 1e-12
# Scored pairs below which a kernel runs on the calling thread alone. A call
# this large takes tens of milliseconds, far above the cost of handing parts
# to threads; the small selections of a simulation stay below it.
_PARALLEL_MIN_WORK = 1 << 24
# Float64 scratch elements that one parallel call may hold across all its
# threads: the single 4,096 x 2,048 buffer (64 MB) the serial k-center first
# pass held. Threads are capped to fit it, so scratch does not grow with the
# CPU count; one part larger than the budget runs alone, as the serial kernel
# would have held it. A k-center thread holds 384 x 1,024 floats (3 MB), so
# that pass reaches the cap only past 21 threads. Beside the pool, the one
# pool-sized array of a select, the threads' buffers and the largest density
# class's gathered rows are the largest arrays a select holds.
_SCRATCH_BUDGET = 4096 * 2048
# Variables OpenBLAS, the BLAS of numpy's wheels, reads its thread count from
# when it loads; the first one set wins, and with none set it runs a thread
# per CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# cgroup v2 CPU bandwidth limit of this process's group: "<quota> <period>"
# in microseconds, or "max <period>" for none.
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"
# Set in a worker process of a simulation grid (_enter_worker_process): the
# grid already runs one process per CPU, so its kernels stay on one thread.
_in_worker_process = False


def _enter_worker_process() -> None:
    """Mark this process as one of a pool's workers: _worker_count() is 1 from now on."""
    global _in_worker_process
    _in_worker_process = True


def _cgroup_cpu_limit() -> int | None:
    """CPUs the cgroup v2 quota grants, rounded up; None when there is no quota."""
    try:
        with open(_CGROUP_CPU_MAX) as f:
            quota, period = f.read().split()[:2]
        if quota == "max":
            return None
        return max(1, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError):  # no cgroup v2 file, or one this does not parse
        return None


def _blas_single_threaded() -> bool:
    """Whether BLAS runs one thread: the first of _BLAS_THREAD_VARS set to a positive count is 1."""
    values = [os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS]
    return next((int(v) for v in values if v.isdigit() and int(v) > 0), 0) == 1


def _worker_count() -> int:
    """Threads a large kernel call, or processes a simulation grid, may run on.

    Every CPU this process may run on (its affinity mask, else every CPU),
    capped by its cgroup's CPU quota, when BLAS runs one thread. Otherwise
    one: a multithreaded BLAS already spreads each product over the CPUs, and
    its idle threads spin, so kernel threads beside it made a select slower,
    not faster. One as well inside a grid's worker process, so that a grid
    does not start workers x CPUs kernel threads.
    """
    if _in_worker_process or not _blas_single_threaded():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return cpus if limit is None else min(cpus, limit)


def _parallel_ranges(n_items: int, work: int, scratch: int, fn) -> None:
    """Run fn(start, stop, buf) over contiguous parts of range(n_items), one part per thread.

    numpy releases the interpreter lock inside BLAS and ufunc loops, so parts
    that write disjoint outputs run on separate cores. Below _PARALLEL_MIN_WORK
    scored pairs the whole range runs inline as fn(0, n_items, buf). An
    exception raised in any part reaches the caller.

    Each part gets its own float64 buffer of `scratch` elements, allocated
    here on the calling thread: glibc serves a thread's allocations from a
    per-thread arena that keeps freed memory, so large buffers allocated on
    the workers would stay in the process's resident set. There are no more
    parts than _SCRATCH_BUDGET holds buffers; a single part runs inline.
    """
    if work < _PARALLEL_MIN_WORK:
        workers = 1
    else:
        workers = min(_worker_count(), n_items, _SCRATCH_BUDGET // max(scratch, 1))
    if workers <= 1:
        if n_items:
            fn(0, n_items, np.empty(scratch))
        return
    bounds = [n_items * i // workers for i in range(workers + 1)]
    bufs = [np.empty(scratch) for _ in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, a, b, buf) for a, b, buf in zip(bounds, bounds[1:], bufs)]
        for future in futures:
            future.result()


class DegenerateInputError(ValueError):
    """Structurally valid input that is numerically unusable (e.g. a zero-norm row)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row

    # An exception is unpickled (as a worker process's error is, in its
    # parent) by calling its class with its args, which hold only the
    # message; these pass every field.
    def __reduce__(self):
        return type(self), (self.args[0], self.row), self.__dict__


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int, learning_rate: float):
        super().__init__(message)
        self.epoch = epoch
        self.learning_rate = learning_rate

    def __reduce__(self):  # see DegenerateInputError.__reduce__
        return type(self), (self.args[0], self.epoch, self.learning_rate), self.__dict__


class UndefinedCorrelationError(ValueError):
    """Correlation requested between inputs where at least one has zero variance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    """Read-only C-contiguous view of a; the caller's own array stays writeable.

    Copies only when a is not already C-contiguous.
    """
    view = np.ascontiguousarray(a).view()
    view.setflags(write=False)
    return view


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
            norms = np.sqrt(np.einsum("ij,ij->i", self.data, self.data))  # no n x d temporary
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
        return FeatureMatrix(self.data[_row_selection(indices, self.n)], unit_norm=self.unit_norm)

    def take(self, positions, out=None) -> np.ndarray:
        """Copies of the rows at `positions`, written into `out` when given."""
        return np.take(self.data, positions, axis=0, out=out)


def _row_selection(indices, n: int) -> np.ndarray:
    """indices as int64, checked to be a non-empty 1-D list of rows of an n-row matrix."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("row selection must be a non-empty 1-D index list")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("row selection out of range")
    return idx


@dataclass(frozen=True, eq=False)
class RowView:
    """Rows `indices` of a FeatureMatrix (order preserved), read in place.

    It offers what the density pass reads of the matrix rows(indices) builds
    (n, d, unit_norm and take) without copying the rows: take gathers only
    the rows asked for. The indices are checked as rows checks them; the
    parent's unit norms were checked when it was built, so not again here.
    """

    parent: FeatureMatrix
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", _readonly(_row_selection(self.indices, self.parent.n)))

    @property
    def n(self) -> int:
        return self.indices.size

    @property
    def d(self) -> int:
        return self.parent.d

    @property
    def unit_norm(self) -> bool:
        return self.parent.unit_norm

    def take(self, positions, out=None) -> np.ndarray:
        """Copies of rows `positions` of the view, written into `out` when given.

        A bad position raises as it indexes the view's indices, which were
        range-checked when the view was built; so np.take can gather with
        mode="clip", which never clips here and, unlike the default "raise",
        writes straight into `out` with no temporary of its size.
        """
        return np.take(self.parent.data, self.indices[positions], axis=0, out=out, mode="clip")


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
    """Disjoint labeled/unlabeled index sets covering range(n_total)."""

    n_total: int
    labeled: np.ndarray
    unlabeled: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labeled", _readonly(np.asarray(self.labeled, np.int64)))
        object.__setattr__(self, "unlabeled", _readonly(np.asarray(self.unlabeled, np.int64)))


def make_pool(n_total: int, initial_labeled) -> PoolState:
    """Fresh pool with the given labeled indices."""
    if n_total < 1:
        raise ValueError("n_total must be positive")
    lab = np.asarray(initial_labeled, dtype=np.int64).ravel()
    if lab.size and (lab.min() < 0 or lab.max() >= n_total):
        raise ValueError("labeled index out of range")
    labeled = np.zeros(n_total, bool)
    labeled[lab] = True
    if np.count_nonzero(labeled) != lab.size:
        raise ValueError("labeled indices contain duplicates")
    return PoolState(
        n_total=n_total, labeled=np.flatnonzero(labeled), unlabeled=np.flatnonzero(~labeled)
    )


def commit_acquisition(pool: PoolState, selected) -> PoolState:
    """Move selected indices from unlabeled to labeled."""
    sel = np.asarray(selected, dtype=np.int64).ravel()
    if sel.size == 0:
        raise ValueError("selection is empty")
    # Masks over range(n_total) replace sorted set operations. An index
    # outside that range is in no mask (a negative one must not wrap), so it
    # is checked for duplicates on its own and fails the pool check.
    inside = (sel >= 0) & (sel < pool.n_total)
    picked = np.zeros(pool.n_total, bool)
    picked[sel[inside]] = True
    if np.count_nonzero(picked) + np.unique(sel[~inside]).size != sel.size:
        raise ValueError("selection contains duplicates")
    unlabeled = np.zeros(pool.n_total, bool)
    unlabeled[pool.unlabeled] = True
    in_pool = np.zeros(sel.size, bool)
    in_pool[inside] = unlabeled[sel[inside]]
    if not in_pool.all():
        raise ValueError(f"index {sel[~in_pool][0]} is not in the unlabeled pool")
    labeled = np.zeros(pool.n_total, bool)
    labeled[pool.labeled] = True
    return PoolState(
        n_total=pool.n_total,
        labeled=np.flatnonzero(labeled | picked),
        unlabeled=np.flatnonzero(unlabeled & ~picked),
    )


def check_bucket_count(k: int) -> None:
    """The one rule for a hash bucket count: a positive even integer."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"buckets must be a positive even integer, got {k}")


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs for one acquisition round.

    budget: number of samples to pick this round.
    n_buckets: hash bucket count (even) for density estimation.
    n_breaks: number of density classes for the natural-breaks split.
    temperature: softmax temperature for inverse-size budget ratios.
    """

    budget: int
    n_buckets: int = 100
    n_breaks: int = 4
    temperature: float = 0.25

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")
        check_bucket_count(self.n_buckets)
        if self.n_breaks < 1:
            raise ValueError("breaks must be at least 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
