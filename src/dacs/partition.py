"""Natural-breaks splitting of a 1-D density spectrum and per-class budget allocation.

The breaks solver is the exact dynamic program over contiguous segments of the
sorted values, minimizing total within-class sum of squared deviations. Runs of
equal values are collapsed into weighted points first: an optimal contiguous
partition never has to split a run, so the DP over distinct values is exact and
much smaller. Very large inputs are compressed to equal-frequency quantile bins
before the DP; exactness holds below that threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

# Above this many distinct values the DP runs on quantile-bin representatives.
BIN_THRESHOLD = 20_000
N_BINS = 1_024


@dataclass
class DensityPartition:
    """Contiguous density classes, sparsest first.

    clusters holds member positions into the value array handed to the solver;
    breaks holds the h-1 upper boundaries (value scale) of all but the densest
    class. ratios/budgets stay None until allocate_budget fills them in.
    """

    clusters: list
    breaks: np.ndarray
    ratios: np.ndarray | None = None
    budgets: np.ndarray | None = None


def _weighted_jenks_dp(u: np.ndarray, w: np.ndarray, h: int) -> np.ndarray:
    """Optimal segment edges over ascending distinct values u with weights w.

    Returns h+1 edge positions (0 and len(u) included). Equal-cost ties resolve
    to the smallest predecessor edge within each divide-and-conquer range only,
    so the cost is the full O(p^2) scan's optimum but on tied inputs the edges
    may differ from that scan's: np.linspace(0, 1, 7) with h=3 gives
    [0, 2, 4, 7] here and [0, 2, 5, 7] from the full scan. Within each layer the
    optimal predecessor is non-decreasing in the segment end (the within-class
    SSD satisfies the concave Monge condition), so divide and conquer solves
    the middle end of a range and hands each half only the predecessors on its
    side of that answer. The recursion runs one level at a time: every open
    range of a level is solved in one flat, vectorised pass, so a layer costs
    about log2(p) passes and O(p log p) cost evaluations instead of the naive
    O(p^2).
    """
    p = u.size
    centered = u - np.average(u, weights=w)  # SSD is shift-invariant; this conditions the sums
    cw = np.concatenate([[0.0], np.cumsum(w)])
    c1 = np.concatenate([[0.0], np.cumsum(w * centered)])
    with np.errstate(over="ignore"):
        c2 = np.concatenate([[0.0], np.cumsum(w * centered * centered)])
    if not np.isfinite(c2[-1]):
        raise ValueError("values are too far apart: squared deviations overflow float64")

    back = np.zeros((h + 1, p + 1), dtype=np.int64)
    # Layer 1's only finite predecessor is edge 0 (so back[1] stays 0): its
    # totals are the general pass's at i = 0, whose zero terms drop exactly.
    j = np.arange(1, p - h + 2)
    prev = np.full(p + 1, np.inf)
    prev[j] = c2[j] - c1[j] * c1[j] / cw[j]
    for c in range(2, h + 1):
        cur = np.full(p + 1, np.inf)
        # Classes c..h each need one value, bounding this layer's edge range.
        j_hi = p - (h - c)
        # Open ranges: segment ends jlo..jhi, whose predecessors lie in ilo..ihi.
        jlo, jhi = np.array([c]), np.array([j_hi])
        ilo, ihi = np.array([c - 1]), np.array([j_hi - 1])
        while jlo.size:
            jm = (jlo + jhi) // 2
            # Every range keeps ilo < jlo <= jm and ilo <= ihi (children inherit
            # a bound or take best_i, which lies in ilo..min(ihi, jm - 1)), so
            # each has at least one candidate. reduceat needs that: for an
            # empty range it would return the next range's first total.
            counts = np.minimum(ihi, jm - 1) - ilo + 1
            starts = np.cumsum(counts) - counts
            i = np.arange(starts[-1] + counts[-1]) + np.repeat(ilo - starts, counts)
            j = np.repeat(jm, counts)
            ww = cw[j] - cw[i]
            s1 = c1[j] - c1[i]
            totals = prev[i] + (c2[j] - c2[i]) - s1 * s1 / ww
            best_v = np.minimum.reduceat(totals, starts)
            # First hit of each range's minimum: ties go to the smallest predecessor.
            hits = np.flatnonzero(totals == np.repeat(best_v, counts))
            best_i = i[hits[np.searchsorted(hits, starts)]]
            cur[jm] = best_v
            back[c, jm] = best_i
            # The last layer needs only cur[p], so only the ranges holding p.
            left, right = (jlo < jm) & (c < h), jm < jhi
            jlo, jhi, ilo, ihi = (
                np.concatenate([jlo[left], jm[right] + 1]),
                np.concatenate([jm[left] - 1, jhi[right]]),
                np.concatenate([ilo[left], best_i[right]]),
                np.concatenate([best_i[left], ihi[right]]),
            )
        prev = cur
    edges = np.empty(h + 1, dtype=np.int64)
    edges[h] = p
    for c in range(h, 0, -1):
        edges[c - 1] = back[c, edges[c]]
    return edges


def _quantile_bins(v_sorted: np.ndarray, n_bins: int):
    """Equal-frequency compression: (representative mean, count) per bin."""
    n = v_sorted.size
    edges = np.unique(np.round(np.linspace(0, n, n_bins + 1)).astype(np.int64))
    reps = np.empty(edges.size - 1)
    counts = np.empty(edges.size - 1, dtype=np.int64)
    for b in range(edges.size - 1):
        seg = v_sorted[edges[b] : edges[b + 1]]
        reps[b] = seg.mean()
        counts[b] = seg.size
    # Bin means can collide when a value dominates several bins; merge them.
    uniq, inverse = np.unique(reps, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(merged, inverse, counts)
    return uniq, merged


def jenks_breaks(values, h: int) -> DensityPartition:
    """Split values into h contiguous classes minimizing within-class squared deviation.

    Classes come back sparsest first (ascending value). A value exactly on a
    break boundary belongs to the lower class. When h exceeds the points the
    DP gets (the distinct values, or above BIN_THRESHOLD their quantile
    bins), it warns and makes one class per point, so the partition holds
    fewer than h classes. Raises ValueError when the values are spread so
    far that their squared deviations overflow float64.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot partition an empty value list")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if h < 1:
        raise ValueError("h must be at least 1")
    uniq, counts = np.unique(v, return_counts=True)
    points = f"{uniq.size} distinct values"
    if uniq.size > BIN_THRESHOLD:
        uniq, counts = _quantile_bins(np.sort(v), N_BINS)
        points = f"{uniq.size} quantile bins of {points}"
    if h > uniq.size:
        warnings.warn(f"{h} classes requested but only {points}; using {uniq.size}")
        h = uniq.size
    edges = _weighted_jenks_dp(uniq, counts, h)
    breaks = uniq[edges[1:h] - 1]
    # Membership by value: count of breaks strictly below puts boundary ties low.
    cluster_of = np.searchsorted(breaks, v, side="left")
    clusters = [np.flatnonzero(cluster_of == c) for c in range(h)]
    return DensityPartition(clusters=clusters, breaks=breaks)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def allocate_budget(
    partition: DensityPartition,
    budget: int,
    temperature: float,
    total_unlabeled: int,
) -> DensityPartition:
    """Split a budget across classes, favoring small (sparse) ones.

    Ratios are softmax((1 - |C_i|/total)/temperature). Integer budgets are the
    floors of ratio*budget; the remainder is handed out one unit at a time over
    classes in ascending size order (sparsest first on ties), skipping full
    classes, so sum(budgets) == min(budget, total_unlabeled) and every budget
    is capped by its class size.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    sizes = np.array([len(c) for c in partition.clusters], dtype=np.int64)
    if sizes.sum() != total_unlabeled:
        raise ValueError(
            f"cluster sizes sum to {sizes.sum()} but total_unlabeled={total_unlabeled}"
        )
    if np.any(sizes == 0):
        raise ValueError("clusters must be non-empty")
    if budget > total_unlabeled:
        warnings.warn(
            f"budget {budget} exceeds unlabeled pool size {total_unlabeled}; clamping"
        )
        budget = total_unlabeled
    ratios = _softmax((1.0 - sizes / total_unlabeled) / temperature)
    budgets = np.minimum(np.floor(ratios * budget).astype(np.int64), sizes)
    order = np.argsort(sizes, kind="stable")
    deficit = budget - int(budgets.sum())
    while deficit > 0:
        progressed = False
        for c in order:
            if deficit == 0:
                break
            if budgets[c] < sizes[c]:
                budgets[c] += 1
                deficit -= 1
                progressed = True
        if not progressed:  # cannot happen while budget <= total, kept as a guard
            raise RuntimeError("budget allocation failed to converge")
    return replace(partition, ratios=ratios, budgets=budgets)
