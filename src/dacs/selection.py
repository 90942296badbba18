"""Acquisition strategies built around a decomposed greedy k-center.

The greedy picks, one at a time, the candidate whose strongest cosine
similarity to the reference set (labeled samples plus everything selected so
far) is weakest. It keeps each candidate's running max similarity, which can
only grow as picks are added, so a stale value is a lower bound: only the
candidate at the front is brought up to date (lazy greedy, Minoux 1978), with
one matrix-vector product of the picks it lacks against its row. The
candidate rows are gathered once per call. The density-aware pipeline splits
the unlabeled pool into density classes first and runs the greedy inside
each class under an inverse-size budget, sparsest class first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AcquisitionConfig,
    FeatureMatrix,
    PoolState,
    Rng,
    _parallel_ranges,
    _readonly,
)
from .density import pool_density
from .partition import allocate_budget, jenks_breaks

STRATEGY_RANDOM = "random"
STRATEGY_CORESET = "coreset"
STRATEGY_DACS = "dacs"
STRATEGY_SPARSE_ONLY = "sparse-only"
STRATEGY_DENSE_ONLY = "dense-only"
STRATEGY_COMBINED = "combined"
STRATEGY_ENTROPY = "entropy-top-b"

# Density classes used by the single-region ablation strategies.
REGION_BREAKS = 3
# Candidates the combined strategy pre-selects per pick it keeps.
EXPAND_FACTOR = 2.0


@dataclass(frozen=True, eq=False)
class UncertaintyScores:
    """Per-sample finite uncertainty, aligned to sample indices; higher = more uncertain."""

    scores: np.ndarray
    source: str = "external-file"

    def __post_init__(self):
        object.__setattr__(self, "scores", _readonly(np.asarray(self.scores, np.float64)))
        if self.scores.ndim != 1:
            raise ValueError("scores must be 1-D")
        bad = np.flatnonzero(~np.isfinite(self.scores))
        if bad.size:
            raise ValueError(f"uncertainty score of sample {bad[0]} is {self.scores[bad[0]]}")

    def check_covers(self, pool: PoolState) -> None:
        """Refuse a vector that is not exactly one score per sample of the pool."""
        if self.scores.size != pool.n_total:
            raise ValueError(
                f"{self.scores.size} uncertainty scores for a pool of {pool.n_total} samples"
            )


@dataclass
class ClusterSelection:
    cluster: int
    budget: int
    selected: list


@dataclass
class AcquisitionResult:
    """Selected sample indices (selection order preserved) plus per-cluster detail."""

    selected: list
    per_cluster: list
    diagnostics: dict


# Reference rows gathered at once, and candidate rows multiplied against them
# at once, by the first k-center pass: each thread's scratch is _CAND_TILE x
# _REF_BLOCK floats (3 MB) whatever the pool size. The tile size is fixed, not
# derived from the thread count, so every product has the same shape and the
# same bits on any number of cores; that holds for any BLAS. That 384-row
# tiles also round every entry as the untiled product does was seen only on
# x86-64 OpenBLAS 0.3.31 (SkylakeX kernels), where 4,096- and 128-row tiles
# moved the last rows of a tile in the last columns by an ulp. The block was
# seen the same way there: 1,024-row blocks gave every row maximum of the
# 2,048-row ones in the first passes of 100k-row selects, 512-row blocks not.
_REF_BLOCK = 1024
_CAND_TILE = 384

# Refreshes one k-center pick may spend per feature column. A refresh scans
# the n running values for the front, while folding a pick into every
# candidate multiplies n rows of d, so the bound grows with d. A pick that
# needs more folds every missing pick into every candidate, and so does
# every pick after it. Values are that stale after an empty reference's
# first center: on 100k x 16 rows with no labels, unbounded lazy picks took
# 264k refreshes (5.5 s on one x86-64 core, against 0.6 s for the
# products), and still 25 a pick after 300 products. No pick of
# select_100k's pool 0 or of the near_duplicate grid reaches the bound.
_REFRESHES_PER_COLUMN = 4


def _max_similarity(Xc: np.ndarray, features: FeatureMatrix, ref: np.ndarray) -> np.ndarray:
    """max over reference rows of features of cosine similarity, per row of Xc.

    Each block of _REF_BLOCK reference rows is gathered once, as float64
    rows (take). The candidate rows then meet it in tiles of _CAND_TILE rows
    (read at call time), each tile's product written into a reused buffer and
    its row maxima folded into the output. Every value is the one a single
    candidates x block product gives; a bit-exact oracle test checks this,
    since no BLAS documents it (see _CAND_TILE).

    BLAS takes its matrix-vector path, which rounds differently, for a
    product with one row or one column. So no product has a single row
    unless Xc does (a one-row tail is multiplied together with the row before
    it; a tile is at least 2 rows), and a one-column block is multiplied
    whole, as it is no larger than the output.

    A large pass splits the list of tiles into contiguous runs, one per
    thread, each with its own buffer. The tiles are the same on any number of
    threads, and a thread writes only the output rows of its own tiles (the
    row a tail borrows belongs to the tile before it), so no value depends on
    the thread count.
    """
    n = Xc.shape[0]
    out = np.full(n, -np.inf)
    block, tile = _REF_BLOCK, max(_CAND_TILE, 2)
    starts = range(0, n, tile)
    for start in range(0, ref.size, block):
        R = features.take(ref[start : start + block]).T
        if R.shape[1] == 1:
            np.maximum(out, (Xc @ R)[:, 0], out=out)
            continue

        def tiles(first: int, last: int, sims_buf: np.ndarray) -> None:
            for r in starts[first:last]:
                lo = r - 1 if r and r == n - 1 else r
                rows = Xc[lo : r + tile]
                sims = sims_buf[: rows.shape[0] * R.shape[1]].reshape(rows.shape[0], R.shape[1])
                np.matmul(rows, R, out=sims)
                np.maximum(out[r : r + tile], sims[r - lo :].max(axis=1), out=out[r : r + tile])

        _parallel_ranges(len(starts), n * R.shape[1], min(tile, n) * R.shape[1], tiles)
    return out


def kcenter_greedy(
    candidates,
    reference,
    n_pick: int,
    features: FeatureMatrix,
    density: np.ndarray | None = None,
):
    """Greedy facility placement under cosine similarity.

    Each step picks the candidate minimizing its maximum similarity to the
    reference set plus prior picks, breaking ties toward the lowest index.
    The candidates must be strictly increasing, as every strategy passes
    slices of the ascending unlabeled pool. With an empty reference the
    first center is the lowest-density candidate when density (one value per
    candidate, in candidate order) is given, else the lowest index; its
    trace entry is -inf.

    The candidate rows are gathered once per call, as float64 rows. Each
    candidate keeps its running max and the number of picks folded into it.
    A step takes the lowest running value; while that candidate lacks picks,
    they are folded in and, if its value rose, the step looks again. Stale
    values are lower bounds, so the step picks what a loop that multiplies
    every candidate row by every pick picks (the tests keep that loop as a
    bit-exact oracle), with the same trace bits: max is exact, and each
    (candidate, pick) similarity comes from a product that rounds it as that
    loop's candidates x pick product does.

    BLAS rounds a matrix-vector product in groups of 4 rows, and rounds a
    row inside a group alike in either orientation (candidate rows x pick or
    pick rows x candidate) and at any 4-aligned offset; that was seen, not
    documented, on x86-64 OpenBLAS 0.3.31's SkylakeX, Haswell and Sandybridge
    kernels, and a test pins it. So a refresh multiplies the candidate's row
    by its missing picks padded back to a multiple of 4 rows with picks it
    already holds, which leave its max as it is. A candidate in the last
    n mod 4 rows, which the candidates x pick product rounds by other rules,
    takes its similarity to each missing pick from that product's last
    4 + n mod 4 rows. A pick that would refresh more than
    _REFRESHES_PER_COLUMN x d candidates instead folds every missing pick
    into every candidate with that loop's own products, and the call goes on
    as that loop. After an empty reference's first center every value is
    stale, so a call with more candidates than that gets there at its
    second pick.

    Returns (picked indices in selection order, per-pick max-similarity trace).
    """
    if not features.unit_norm:
        raise ValueError("greedy k-center requires unit-norm features")
    cand = np.asarray(candidates, np.int64).ravel()
    if density is not None and np.shape(density) != cand.shape:
        raise ValueError(f"{np.size(density)} density values for {cand.size} candidates")
    if np.any(cand[1:] <= cand[:-1]):
        raise ValueError("candidates must be strictly increasing")
    ref = np.asarray(reference, np.int64)
    if n_pick < 0:
        raise ValueError("n_pick must be non-negative")
    if n_pick > cand.size:
        raise ValueError(f"cannot pick {n_pick} from {cand.size} candidates")
    if n_pick == 0:
        return [], []
    Xc = features.take(cand)
    n = cand.size
    grouped = n - n % 4  # rows the candidates x pick product rounds in groups of 4
    tail = max(grouped - 4, 0)  # first of that product's last 4 + n mod 4 rows
    budget = _REFRESHES_PER_COLUMN * Xc.shape[1]
    # Row 3 + j holds pick j's row; rows 0-2 repeat pick 0, so a refresh's
    # window of 4-padded rows never starts before row 0.
    pick_rows = np.empty((n_pick + 3, Xc.shape[1]))
    picked: list[int] = []
    trace: list[float] = []
    if ref.size:
        maxsim = _max_similarity(Xc, features, ref)
    else:
        # -2 lies below every cosine of unit rows, and the first center's
        # -inf below that, so the loop takes it first and traces it at -inf.
        maxsim = np.full(n, -2.0)
        maxsim[int(np.argmin(density)) if density is not None else 0] = -np.inf
    folded = [0] * n
    eager = False  # whether each pick is folded into every candidate as it is made
    while len(picked) < n_pick:
        k = len(picked)
        pos = int(maxsim.argmin())
        refreshes = 0
        while not eager and folded[pos] < k:
            if refreshes == budget:
                for j in range(min(folded), k):
                    np.maximum(maxsim, Xc @ pick_rows[3 + j], out=maxsim)
                eager = True
                pos = int(maxsim.argmin())
                break
            refreshes += 1
            have = folded[pos]
            folded[pos] = k
            if pos < grouped:
                m = (k - have + 3) & -4
                v = np.dot(pick_rows[k + 3 - m : k + 3], Xc[pos]).max()
            else:
                v = max((Xc[tail:] @ pick_rows[3 + j])[pos - tail] for j in range(have, k))
            if v > maxsim[pos]:
                maxsim[pos] = v
                pos = int(maxsim.argmin())
        trace.append(float(maxsim[pos]))
        picked.append(int(cand[pos]))
        pick_rows[k + 3] = Xc[pos]
        if k == 0:
            pick_rows[:3] = Xc[pos]
        if eager:
            np.maximum(maxsim, Xc @ Xc[pos], out=maxsim)
        maxsim[pos] = np.inf
    return picked, trace


def check_budget(budget: int, pool: PoolState) -> None:
    """Refuse a budget above the unlabeled pool, which only dacs and the region strategies clamp."""
    if budget > pool.unlabeled.size:
        raise ValueError(f"budget {budget} exceeds unlabeled pool size {pool.unlabeled.size}")


def _density_pipeline(pool: PoolState, features: FeatureMatrix, config: AcquisitionConfig, rng: Rng):
    """Shared front half: hash, window density, natural breaks over the unlabeled pool.

    The partition holds at most config.n_breaks classes: jenks_breaks clamps
    (with a warning) to the points its DP gets.
    """
    profile = pool_density(features, pool.unlabeled, config.n_buckets, rng)
    return profile, jenks_breaks(profile.values, config.n_breaks)


def dacs_select(
    pool: PoolState,
    features: FeatureMatrix,
    config: AcquisitionConfig,
    rng: Rng,
) -> AcquisitionResult:
    """Density-aware core-set selection over the unlabeled pool.

    Estimates windowed density on the unlabeled features, splits the density
    spectrum into config.n_breaks classes, allocates the budget inversely to
    class size, then runs greedy k-center within each class from sparsest to
    densest. Each class's reference is the labeled set plus every pick of the
    classes before it. A budget larger than the unlabeled pool is clamped (with
    a warning, by allocate_budget) so that sum(budgets) == min(budget, pool size).
    """
    profile, partition = _density_pipeline(pool, features, config, rng)
    partition = allocate_budget(partition, config.budget, config.temperature, pool.unlabeled.size)
    running: list[int] = []
    per_cluster: list[ClusterSelection] = []
    trace_all: list[float] = []
    cluster_table = []
    for ci, members in enumerate(partition.clusters):
        cand = pool.unlabeled[members]
        n_i = int(partition.budgets[ci])
        ref = np.concatenate([pool.labeled, np.asarray(running, np.int64)])
        picked, trace = kcenter_greedy(cand, ref, n_i, features, density=profile.values[members])
        running.extend(picked)
        trace_all.extend(trace)
        per_cluster.append(ClusterSelection(cluster=ci, budget=n_i, selected=picked))
        cluster_table.append(
            {
                "cluster": ci,
                "size": int(members.size),
                "mean_density": float(profile.values[members].mean()),
                "budget": n_i,
            }
        )
    return AcquisitionResult(
        selected=running,
        per_cluster=per_cluster,
        diagnostics={
            "strategy": STRATEGY_DACS,
            "max_similarity": trace_all,
            "clusters": cluster_table,
            "h_used": len(partition.clusters),
        },
    )


def coreset_select(pool: PoolState, features: FeatureMatrix, budget: int) -> AcquisitionResult:
    """Plain greedy k-center over the whole unlabeled pool."""
    check_budget(budget, pool)
    picked, trace = kcenter_greedy(pool.unlabeled, pool.labeled, budget, features)
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=0, budget=budget, selected=picked)],
        diagnostics={"strategy": STRATEGY_CORESET, "max_similarity": trace},
    )


def random_select(pool: PoolState, budget: int, rng: Rng) -> AcquisitionResult:
    """Uniform sample without replacement from the unlabeled pool."""
    check_budget(budget, pool)
    gen = rng.derive("random-select").generator()
    picked = [int(i) for i in gen.choice(pool.unlabeled, size=budget, replace=False)]
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=0, budget=budget, selected=picked)],
        diagnostics={"strategy": STRATEGY_RANDOM, "max_similarity": []},
    )


def region_only_select(
    pool: PoolState,
    features: FeatureMatrix,
    config: AcquisitionConfig,
    which: str,
    rng: Rng,
) -> AcquisitionResult:
    """Spend the whole budget inside the sparsest or densest of 3 density classes.

    Ablation strategy: the budget is clamped (with a warning) to the chosen
    class size, so fewer samples than the budget can come back.
    """
    if which not in ("sparsest", "densest"):
        raise ValueError(f"which must be 'sparsest' or 'densest', got {which!r}")
    profile, partition = _density_pipeline(pool, features, replace(config, n_breaks=REGION_BREAKS), rng)
    ci = 0 if which == "sparsest" else len(partition.clusters) - 1
    members = partition.clusters[ci]
    cand = pool.unlabeled[members]
    n_pick = config.budget
    if n_pick > cand.size:
        warnings.warn(
            f"budget {n_pick} exceeds {which} class size {cand.size}; clamping"
        )
        n_pick = cand.size
    picked, trace = kcenter_greedy(cand, pool.labeled, n_pick, features, density=profile.values[members])
    strategy = STRATEGY_SPARSE_ONLY if which == "sparsest" else STRATEGY_DENSE_ONLY
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=ci, budget=n_pick, selected=picked)],
        diagnostics={
            "strategy": strategy,
            "max_similarity": trace,
            "region_size": int(cand.size),
            "h_used": len(partition.clusters),
        },
    )


def entropy_top_b(pool: PoolState, scores: UncertaintyScores, budget: int) -> AcquisitionResult:
    """Pure uncertainty baseline: the budget-many unlabeled samples with the highest scores.

    Score ties keep index order.
    """
    scores.check_covers(pool)
    check_budget(budget, pool)
    order = np.argsort(-scores.scores[pool.unlabeled], kind="stable")[:budget]
    picked = [int(i) for i in pool.unlabeled[order]]
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=0, budget=len(picked), selected=picked)],
        diagnostics={"strategy": STRATEGY_ENTROPY, "max_similarity": []},
    )


def expand_and_squeeze(
    pool: PoolState,
    features: FeatureMatrix,
    config: AcquisitionConfig,
    scores: UncertaintyScores,
    rng: Rng,
) -> AcquisitionResult:
    """Over-select with the density-aware pipeline, keep the most uncertain.

    Runs dacs_select with an expanded budget ceil(EXPAND_FACTOR * budget),
    capped at the pool size, then keeps the budget-many candidates with the
    highest uncertainty scores. Score ties keep earlier-selected candidates.
    """
    scores.check_covers(pool)
    b = config.budget
    check_budget(b, pool)
    expanded = min(math.ceil(EXPAND_FACTOR * b), pool.unlabeled.size)
    inner = dacs_select(pool, features, replace(config, budget=expanded), rng)
    cand = np.asarray(inner.selected, np.int64)
    order = np.argsort(-scores.scores[cand], kind="stable")[:b]
    keep = set(int(cand[i]) for i in order)
    selected = [int(i) for i in cand if int(i) in keep]
    per_cluster = []
    for cs in inner.per_cluster:
        kept = [i for i in cs.selected if i in keep]
        per_cluster.append(ClusterSelection(cluster=cs.cluster, budget=len(kept), selected=kept))
    return AcquisitionResult(
        selected=selected,
        per_cluster=per_cluster,
        diagnostics={
            "strategy": STRATEGY_COMBINED,
            "expanded_budget": expanded,
            "score_source": scores.source,
            "clusters": inner.diagnostics["clusters"],
            "h_used": inner.diagnostics["h_used"],
            "max_similarity": [],
        },
    )


# The one strategy dispatch: name -> (fn(pool, features, config, rng, scores),
# the settings it reads). Each fn looks its function up in this module's
# globals when called, so a wrapper installed there (for example a tracer)
# sees every call. The reads are named as the `dacs select` flags (seed is the
# Rng's, scores the UncertaintyScores); a run refuses any other. The region
# strategies use REGION_BREAKS, no temperature.
_DACS_READS = ("buckets", "breaks", "temperature", "seed")
_STRATEGY_TABLE = {
    STRATEGY_RANDOM: (lambda pool, x, cfg, rng, s: random_select(pool, cfg.budget, rng), ("seed",)),
    STRATEGY_CORESET: (lambda pool, x, cfg, rng, s: coreset_select(pool, x, cfg.budget), ()),
    STRATEGY_DACS: (lambda pool, x, cfg, rng, s: dacs_select(pool, x, cfg, rng), _DACS_READS),
    STRATEGY_SPARSE_ONLY: (
        lambda pool, x, cfg, rng, s: region_only_select(pool, x, cfg, "sparsest", rng),
        ("buckets", "seed"),
    ),
    STRATEGY_DENSE_ONLY: (
        lambda pool, x, cfg, rng, s: region_only_select(pool, x, cfg, "densest", rng),
        ("buckets", "seed"),
    ),
    STRATEGY_COMBINED: (
        lambda pool, x, cfg, rng, s: expand_and_squeeze(pool, x, cfg, s, rng),
        _DACS_READS + ("scores",),
    ),
    STRATEGY_ENTROPY: (lambda pool, x, cfg, rng, s: entropy_top_b(pool, s, cfg.budget), ("scores",)),
}
STRATEGIES = tuple(_STRATEGY_TABLE)
STRATEGY_READS = {name: reads for name, (_, reads) in _STRATEGY_TABLE.items()}
# Strategies that rank by per-sample uncertainty and so need scores.
SCORED_STRATEGIES = tuple(s for s, reads in STRATEGY_READS.items() if "scores" in reads)


def select(
    strategy: str,
    pool: PoolState,
    features: FeatureMatrix,
    config: AcquisitionConfig,
    rng: Rng,
    scores: UncertaintyScores | None = None,
) -> AcquisitionResult:
    """Run the named acquisition strategy; scores are required by SCORED_STRATEGIES only."""
    if strategy not in _STRATEGY_TABLE:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if scores is None and strategy in SCORED_STRATEGIES:
        raise ValueError(f"strategy {strategy!r} requires uncertainty scores")
    return _STRATEGY_TABLE[strategy][0](pool, features, config, rng, scores)
