"""Acquisition strategies built around a decomposed greedy k-center.

The greedy picks, one at a time, the candidate whose strongest cosine
similarity to the reference set (labeled samples plus everything selected so
far) is weakest, keeping a cached per-candidate max-similarity array so each
pick costs one matrix-vector product against the candidate rows, which are
gathered once per call. The density-aware pipeline splits the unlabeled pool
into density classes first and runs the greedy inside each class under an
inverse-size budget, sparsest class first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    REFERENCE_CLUSTER_LOCAL,
    AcquisitionConfig,
    FeatureMatrix,
    PoolState,
    Rng,
    _readonly,
)
from .density import DensityProfile, lsh_assign, lsh_density
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


@dataclass(frozen=True, eq=False)
class UncertaintyScores:
    """Per-sample uncertainty, aligned to sample indices; higher = more uncertain."""

    scores: np.ndarray
    source: str = "external-file"

    def __post_init__(self):
        object.__setattr__(self, "scores", _readonly(np.asarray(self.scores, np.float64)))
        if self.scores.ndim != 1:
            raise ValueError("scores must be 1-D")


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
# at once, by the first k-center pass: together they bound its scratch block
# to _CAND_TILE x _REF_BLOCK floats (64 MB) whatever the pool size.
_REF_BLOCK = 2048
_CAND_TILE = 4096


def _max_similarity(
    Xc: np.ndarray, X: np.ndarray, ref: np.ndarray, block: int = _REF_BLOCK, tile: int = _CAND_TILE
) -> np.ndarray:
    """max over reference rows of X of cosine similarity, per row of Xc.

    Each block of reference rows is gathered once. The candidate rows then
    meet it in tiles of `tile` rows, each tile's product written into one
    reused buffer and its row maxima folded into the output. Every value is
    the one a single candidates x block product gives; a bit-exact oracle
    test checks this, since no BLAS documents it.

    BLAS takes its matrix-vector path, which rounds differently, for a
    product with one row or one column. So no tile holds a single row unless
    Xc does (a one-row tail starts a row early; a tile is at least 2 rows),
    and a one-column block is multiplied whole, as it is no larger than the
    output.
    """
    n = Xc.shape[0]
    out = np.full(n, -np.inf)
    tile = max(tile, 2)
    sims_buf = np.empty(min(tile, n) * min(block, ref.size))
    for start in range(0, ref.size, block):
        R = X[ref[start : start + block]].T
        if R.shape[1] == 1:
            np.maximum(out, (Xc @ R)[:, 0], out=out)
            continue
        for r in range(0, n, tile):
            if r and r == n - 1:
                r -= 1
            rows = Xc[r : r + tile]
            sims = sims_buf[: rows.shape[0] * R.shape[1]].reshape(rows.shape[0], R.shape[1])
            np.matmul(rows, R, out=sims)
            np.maximum(out[r : r + tile], sims.max(axis=1), out=out[r : r + tile])
    return out


def kcenter_greedy(
    candidates,
    reference,
    n_pick: int,
    features: FeatureMatrix,
    density: DensityProfile | None = None,
):
    """Greedy facility placement under cosine similarity.

    Each step picks the candidate minimizing its maximum similarity to the
    reference set plus prior picks, breaking ties toward the lowest index.
    With an empty reference the first center is the lowest-density candidate
    when a profile is given, else the lowest index; its trace entry is -inf.

    The candidate rows are gathered once per call; each pick then costs one
    matrix-vector product into a reused buffer and an in-place maximum.

    Returns (picked indices in selection order, per-pick max-similarity trace).
    """
    if not features.unit_norm:
        raise ValueError("greedy k-center requires unit-norm features")
    cand = np.unique(np.asarray(candidates, np.int64))
    ref = np.asarray(reference, np.int64)
    if n_pick < 0:
        raise ValueError("n_pick must be non-negative")
    if n_pick > cand.size:
        raise ValueError(f"cannot pick {n_pick} from {cand.size} candidates")
    if n_pick == 0:
        return [], []
    X = features.data
    Xc = X[cand]
    picked: list[int] = []
    trace: list[float] = []
    if ref.size:
        maxsim = _max_similarity(Xc, X, ref)
    else:
        if density is not None:
            first_pos = int(np.argmin(density.lookup(cand)))
        else:
            first_pos = 0
        u = int(cand[first_pos])
        picked.append(u)
        trace.append(-math.inf)
        maxsim = Xc @ X[u]
        maxsim[first_pos] = np.inf
    sim = np.empty(cand.size)
    while len(picked) < n_pick:
        pos = int(np.argmin(maxsim))
        trace.append(float(maxsim[pos]))
        u = int(cand[pos])
        picked.append(u)
        np.matmul(Xc, X[u], out=sim)
        np.maximum(maxsim, sim, out=maxsim)
        maxsim[pos] = np.inf
    return picked, trace


def pool_density(
    features: FeatureMatrix, indices: np.ndarray, config: AcquisitionConfig, rng: Rng
) -> DensityProfile:
    """Hash the given rows and estimate their window density, keyed by sample index."""
    sub = features.rows(indices)
    assignment = lsh_assign(sub, config.n_buckets, rng)
    local = lsh_density(sub, assignment, window=config.window)
    return DensityProfile(
        indices=indices,
        values=local.values,
        convention=local.convention,
        params=local.params,
        degenerate=local.degenerate,
    )


def _density_pipeline(pool: PoolState, features: FeatureMatrix, config: AcquisitionConfig, rng: Rng):
    """Shared front half: hash, window density, natural breaks over the unlabeled pool."""
    profile = pool_density(features, pool.unlabeled, config, rng)
    h = config.n_breaks
    distinct = np.unique(profile.values).size
    if h > distinct:
        warnings.warn(
            f"{h} density classes requested but only {distinct} distinct values; using {distinct}"
        )
        h = distinct
    partition = jenks_breaks(profile.values, h)
    return profile, partition, h


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
    densest. By default every class sees the running selected set as part of
    its reference; config.reference="cluster-local" restricts each class to
    its own picks. A budget larger than the unlabeled pool is clamped (with a
    warning) so the invariant sum(budgets) == min(budget, pool size) holds.
    """
    b = config.budget
    if b > pool.unlabeled.size:
        warnings.warn(
            f"budget {b} exceeds unlabeled pool size {pool.unlabeled.size}; clamping"
        )
        b = pool.unlabeled.size
    profile, partition, h_used = _density_pipeline(pool, features, config, rng)
    partition = allocate_budget(partition, b, config.temperature, pool.unlabeled.size)
    cluster_local = config.reference == REFERENCE_CLUSTER_LOCAL
    running: list[int] = []
    per_cluster: list[ClusterSelection] = []
    trace_all: list[float] = []
    cluster_table = []
    for ci, members in enumerate(partition.clusters):
        cand = pool.unlabeled[members]
        n_i = int(partition.budgets[ci])
        ref = pool.labeled if cluster_local else np.concatenate(
            [pool.labeled, np.asarray(running, np.int64)]
        )
        picked, trace = kcenter_greedy(cand, ref, n_i, features, density=profile)
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
            "h_used": h_used,
        },
    )


def coreset_select(pool: PoolState, features: FeatureMatrix, budget: int) -> AcquisitionResult:
    """Plain greedy k-center over the whole unlabeled pool."""
    if budget > pool.unlabeled.size:
        raise ValueError(
            f"budget {budget} exceeds unlabeled pool size {pool.unlabeled.size}"
        )
    picked, trace = kcenter_greedy(pool.unlabeled, pool.labeled, budget, features)
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=0, budget=budget, selected=picked)],
        diagnostics={"strategy": STRATEGY_CORESET, "max_similarity": trace},
    )


def random_select(pool: PoolState, budget: int, rng: Rng) -> AcquisitionResult:
    """Uniform sample without replacement from the unlabeled pool."""
    if budget < 1:
        raise ValueError("budget must be positive")
    if budget > pool.unlabeled.size:
        raise ValueError(
            f"budget {budget} exceeds unlabeled pool size {pool.unlabeled.size}"
        )
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
    profile, partition, h_used = _density_pipeline(
        pool, features, replace(config, n_breaks=REGION_BREAKS), rng
    )
    ci = 0 if which == "sparsest" else h_used - 1
    members = partition.clusters[ci]
    cand = pool.unlabeled[members]
    n_pick = config.budget
    if n_pick > cand.size:
        warnings.warn(
            f"budget {n_pick} exceeds {which} class size {cand.size}; clamping"
        )
        n_pick = cand.size
    picked, trace = kcenter_greedy(cand, pool.labeled, n_pick, features, density=profile)
    strategy = STRATEGY_SPARSE_ONLY if which == "sparsest" else STRATEGY_DENSE_ONLY
    return AcquisitionResult(
        selected=picked,
        per_cluster=[ClusterSelection(cluster=ci, budget=n_pick, selected=picked)],
        diagnostics={
            "strategy": strategy,
            "max_similarity": trace,
            "region_size": int(cand.size),
            "h_used": h_used,
        },
    )


def entropy_top_b(pool: PoolState, scores: UncertaintyScores, budget: int) -> AcquisitionResult:
    """Pure uncertainty baseline: the budget-many unlabeled samples with the highest scores.

    Score ties keep index order.
    """
    if scores.scores.size < pool.n_total:
        raise ValueError(
            f"{scores.scores.size} uncertainty scores for a pool of {pool.n_total} samples"
        )
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

    Runs dacs_select with an expanded budget ceil(expand_factor * budget),
    capped at the pool size, then keeps the budget-many candidates with the
    highest uncertainty scores. Score ties keep earlier-selected candidates.
    """
    b = config.budget
    if b > pool.unlabeled.size:
        raise ValueError(
            f"budget {b} exceeds unlabeled pool size {pool.unlabeled.size}"
        )
    expanded = min(math.ceil(config.expand_factor * b), pool.unlabeled.size)
    inner = dacs_select(pool, features, replace(config, budget=expanded), rng)
    cand = np.asarray(inner.selected, np.int64)
    s = scores.scores
    if cand.max() >= s.size:
        raise ValueError(
            f"no uncertainty score for candidate index {int(cand.max())}"
        )
    vals = s[cand]
    if np.any(np.isnan(vals)):
        missing = int(cand[int(np.argmax(np.isnan(vals)))])
        raise ValueError(f"no uncertainty score for candidate index {missing}")
    order = np.argsort(-vals, kind="stable")[:b]
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


# The one strategy dispatch: name -> fn(pool, features, config, rng, scores).
# Each entry looks its function up in this module's globals when called, so a
# wrapper installed there (for example a tracer) sees every call.
_STRATEGY_TABLE = {
    STRATEGY_RANDOM: lambda pool, x, cfg, rng, s: random_select(pool, cfg.budget, rng),
    STRATEGY_CORESET: lambda pool, x, cfg, rng, s: coreset_select(pool, x, cfg.budget),
    STRATEGY_DACS: lambda pool, x, cfg, rng, s: dacs_select(pool, x, cfg, rng),
    STRATEGY_SPARSE_ONLY: lambda pool, x, cfg, rng, s: region_only_select(pool, x, cfg, "sparsest", rng),
    STRATEGY_DENSE_ONLY: lambda pool, x, cfg, rng, s: region_only_select(pool, x, cfg, "densest", rng),
    STRATEGY_COMBINED: lambda pool, x, cfg, rng, s: expand_and_squeeze(pool, x, cfg, s, rng),
    STRATEGY_ENTROPY: lambda pool, x, cfg, rng, s: entropy_top_b(pool, s, cfg.budget),
}
STRATEGIES = tuple(_STRATEGY_TABLE)
# Strategies that rank by per-sample uncertainty and so need scores.
SCORED_STRATEGIES = (STRATEGY_COMBINED, STRATEGY_ENTROPY)


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
    return _STRATEGY_TABLE[strategy](pool, features, config, rng, scores)
