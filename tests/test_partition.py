import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacs.core import Rng
from dacs.partition import (
    DensityPartition,
    _weighted_jenks_dp,
    allocate_budget,
    jenks_breaks,
)

# softmax((1 - [0.8, 0.2]) / 0.25), frozen from direct evaluation
RATIO_80_20 = (0.0831727, 0.9168273)


def exhaustive_best_objective(values, h):
    """Reference: try every contiguous split of the sorted values."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size

    def ssd(seg):
        return float(((seg - seg.mean()) ** 2).sum())

    best = np.inf
    for cuts in itertools.combinations(range(1, n), h - 1):
        edges = (0,) + cuts + (n,)
        total = sum(ssd(v[a:b]) for a, b in zip(edges, edges[1:]))
        if total < best:
            best = total
    return best


def partition_objective(values, partition):
    v = np.asarray(values, dtype=np.float64)
    total = 0.0
    for members in partition.clusters:
        seg = v[members]
        total += float(((seg - seg.mean()) ** 2).sum())
    return total


def quadratic_reference_edges(u, w, h):
    """Reference: the row-by-row DP that scans every predecessor."""
    p = u.size
    centered = u - np.average(u, weights=w)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    c1 = np.concatenate([[0.0], np.cumsum(w * centered)])
    c2 = np.concatenate([[0.0], np.cumsum(w * centered * centered)])
    cost = np.full((h + 1, p + 1), np.inf)
    cost[0, 0] = 0.0
    back = np.zeros((h + 1, p + 1), dtype=np.int64)
    for c in range(1, h + 1):
        for j in range(c, p - (h - c) + 1):
            i = np.arange(c - 1, j)
            seg = (c2[j] - c2[i]) - (c1[j] - c1[i]) ** 2 / (cw[j] - cw[i])
            totals = cost[c - 1, i] + seg
            best = int(np.argmin(totals))
            cost[c, j] = totals[best]
            back[c, j] = i[best]
    edges = np.empty(h + 1, dtype=np.int64)
    edges[h] = p
    for c in range(h, 0, -1):
        edges[c - 1] = back[c, edges[c]]
    return edges, float(cost[h, p])


def stack_reference_edges(u: np.ndarray, w: np.ndarray, h: int) -> np.ndarray:
    """Reference: the divide-and-conquer DP walked one stack frame at a time.

    Optimal segment edges over ascending distinct values u with weights w.

    Returns h+1 edge positions (0 and len(u) included). Ties between equal-cost
    splits resolve to the smallest predecessor edge. Within each layer the
    optimal predecessor is non-decreasing in the segment end (the within-class
    SSD satisfies the concave Monge condition), so a divide-and-conquer sweep
    needs only O(p log p) cost evaluations instead of the naive O(p^2).
    """
    p = u.size
    centered = u - np.average(u, weights=w)  # SSD is shift-invariant; this conditions the sums
    cw = np.concatenate([[0.0], np.cumsum(w)])
    c1 = np.concatenate([[0.0], np.cumsum(w * centered)])
    c2 = np.concatenate([[0.0], np.cumsum(w * centered * centered)])

    back = np.zeros((h + 1, p + 1), dtype=np.int64)
    prev = np.full(p + 1, np.inf)
    prev[0] = 0.0
    for c in range(1, h + 1):
        cur = np.full(p + 1, np.inf)
        # Classes c..h each need one value, bounding this layer's edge range.
        j_hi = p - (h - c)
        stack = [(c, j_hi, c - 1, j_hi - 1)]
        while stack:
            jlo, jhi, ilo, ihi = stack.pop()
            if jlo > jhi:
                continue
            jm = (jlo + jhi) // 2
            lo, hi = max(ilo, c - 1), min(ihi, jm - 1)
            if hi - lo < 32:
                best_i, best_v = lo, np.inf
                for i in range(lo, hi + 1):
                    ww = cw[jm] - cw[i]
                    s1 = c1[jm] - c1[i]
                    v = prev[i] + (c2[jm] - c2[i]) - s1 * s1 / ww
                    if v < best_v:
                        best_i, best_v = i, v
            else:
                i = np.arange(lo, hi + 1)
                ww = cw[jm] - cw[i]
                s1 = c1[jm] - c1[i]
                totals = prev[i] + (c2[jm] - c2[i]) - s1 * s1 / ww
                k = int(np.argmin(totals))
                best_i, best_v = int(i[k]), float(totals[k])
            cur[jm] = best_v
            back[c, jm] = best_i
            stack.append((jlo, jm - 1, ilo, best_i))
            stack.append((jm + 1, jhi, best_i, ihi))
        prev = cur
    edges = np.empty(h + 1, dtype=np.int64)
    edges[h] = p
    for c in range(h, 0, -1):
        edges[c - 1] = back[c, edges[c]]
    return edges


class TestJenksBreaks:
    def test_two_obvious_groups(self):
        part = jenks_breaks([1.0, 2.0, 9.0, 10.0], 2)
        assert sorted(part.clusters[0].tolist()) == [0, 1]
        assert sorted(part.clusters[1].tolist()) == [2, 3]
        assert 2.0 <= part.breaks[0] < 9.0

    def test_single_class(self):
        part = jenks_breaks([3.0, 1.0, 2.0], 1)
        assert sorted(part.clusters[0].tolist()) == [0, 1, 2]
        assert part.breaks.size == 0

    def test_single_value(self):
        part = jenks_breaks([5.0], 1)
        assert part.clusters[0].tolist() == [0]

    # (values, classes asked for, classes made, breaks): two distinct values;
    # one value repeated, which leaves one class and no break.
    @pytest.mark.parametrize(
        "values, h, clusters, breaks",
        [([1.0, 1.0, 2.0], 3, [[0, 1], [2]], [1.0]), ([4.0, 4.0, 4.0], 2, [[0, 1, 2]], [])],
    )
    def test_too_many_classes_clamped_to_the_distinct_values(self, values, h, clusters, breaks):
        distinct = len(set(values))
        match = f"{h} classes requested but only {distinct} distinct values; using {distinct}"
        with pytest.warns(UserWarning, match=match):
            part = jenks_breaks(values, h)
        assert [c.tolist() for c in part.clusters] == clusters
        assert part.breaks.tolist() == breaks

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            jenks_breaks([], 1)

    def test_clusters_ordered_ascending(self):
        gen = Rng(0, "jenks").generator()
        values = gen.uniform(0, 1, 40)
        part = jenks_breaks(values, 4)
        maxima = [values[m].max() for m in part.clusters]
        minima = [values[m].min() for m in part.clusters]
        for c in range(3):
            assert maxima[c] < minima[c + 1]

    def test_boundary_ties_go_to_lower_class(self):
        # duplicated value sits exactly on the lower class's upper break
        values = [1.0, 1.0, 2.0, 2.0, 9.0, 9.0]
        part = jenks_breaks(values, 2)
        assert 2.0 == part.breaks[0]
        assert sorted(part.clusters[0].tolist()) == [0, 1, 2, 3]
        assert sorted(part.clusters[1].tolist()) == [4, 5]

    def test_matches_exhaustive_random_floats(self):
        gen = Rng(1, "jenks").generator()
        for trial in range(20):
            n = int(gen.integers(6, 33))
            h = int(gen.integers(2, 6))
            values = gen.uniform(0, 1, n)
            part = jenks_breaks(values, h)
            got = partition_objective(values, part)
            expect = exhaustive_best_objective(values, h)
            assert abs(got - expect) <= 1e-9

    def test_matches_exhaustive_with_duplicates(self):
        gen = Rng(2, "jenks").generator()
        for trial in range(20):
            n = int(gen.integers(8, 28))
            h = int(gen.integers(2, 5))
            values = gen.integers(0, 8, n).astype(float)
            if np.unique(values).size < h:
                continue
            part = jenks_breaks(values, h)
            got = partition_objective(values, part)
            expect = exhaustive_best_objective(values, h)
            assert abs(got - expect) <= 1e-9

    def test_matches_quadratic_reference_at_scale(self):
        # the divide-and-conquer sweep must not change what the full
        # predecessor scan would have chosen
        gen = Rng(6, "jenks").generator()
        for h in (2, 4, 5):
            values = np.sort(gen.uniform(0, 1, 2_000))
            weights = gen.integers(1, 5, 2_000).astype(np.float64)
            want_edges, want_cost = quadratic_reference_edges(values, weights, h)
            got_edges = _weighted_jenks_dp(values, weights, h)
            assert np.array_equal(got_edges, want_edges)

    def test_every_sample_lands_in_exactly_one_class(self):
        gen = Rng(3, "jenks").generator()
        values = gen.uniform(0, 1, 60)
        part = jenks_breaks(values, 5)
        all_members = np.concatenate(part.clusters)
        assert np.array_equal(np.sort(all_members), np.arange(60))

    @pytest.mark.parametrize("h", [1025, 1100])
    def test_more_classes_than_bins_clamped_to_the_bins(self, h):
        # 25,000 distinct values pass the distinct-value check, but the DP
        # gets their 1,024 quantile bins
        values = Rng(4, "jenks").generator().uniform(0, 1, 25_000)
        assert np.unique(values).size == 25_000
        match = f"{h} classes requested but only 1024 quantile bins of 25000 distinct values; using 1024"
        with pytest.warns(UserWarning, match=match):
            part = jenks_breaks(values, h)
        want = jenks_breaks(values, 1024)
        assert np.array_equal(part.breaks, want.breaks)
        assert all(np.array_equal(a, b) for a, b in zip(part.clusters, want.clusters, strict=True))

    def test_large_input_binned_path(self):
        gen = Rng(4, "jenks").generator()
        values = gen.uniform(0, 1, 25_000)  # all distinct almost surely
        part = jenks_breaks(values, 4)
        assert len(part.clusters) == 4
        assert sum(m.size for m in part.clusters) == 25_000
        # membership still respects the break boundaries
        for c, members in enumerate(part.clusters):
            seg = values[members]
            if c > 0:
                assert seg.min() > part.breaks[c - 1]
            if c < 3:
                assert seg.max() <= part.breaks[c]


@st.composite
def weighted_points(draw, max_p=400):
    """(ascending distinct values, weights, h) covering the DP's hard cases.

    Kinds: random floats, evenly spaced values with equal weights (equal-cost
    ties), normal values with integer weights up to 10^6, and raw drawn
    floats. h is 1, p, or anything in between; p can be 1.
    """
    kind = draw(st.sampled_from(["random", "even", "heavy", "raw"]))
    p = draw(st.integers(1, max_p))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        u = np.unique(gen.uniform(-1.0, 1.0, p))
        w = gen.integers(1, 5, u.size).astype(np.float64)
    elif kind == "even":
        step = draw(st.sampled_from([1.0, 0.1, 3.0]))
        u = draw(st.floats(-5.0, 5.0)) + step * np.arange(p, dtype=np.float64)
        w = np.ones(p)
    elif kind == "heavy":
        u = np.unique(gen.normal(0.0, 1.0, p))
        w = gen.integers(1, 10**6 + 1, u.size).astype(np.float64)
    else:
        raw = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=p))
        u = np.unique(np.asarray(raw, dtype=np.float64))
        w = gen.integers(1, 10**6 + 1, u.size).astype(np.float64)
    h_mode = draw(st.sampled_from(["one", "all", "any"]))
    h = {"one": 1, "all": u.size}.get(h_mode) or draw(st.integers(1, u.size))
    return kind, u, w, h


def weighted_ssd(u, w, edges):
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mean = np.average(u[a:b], weights=w[a:b])
        total += float((w[a:b] * (u[a:b] - mean) ** 2).sum())
    return total


class TestWeightedJenksDP:
    @settings(max_examples=150, deadline=None)
    @given(weighted_points())
    def test_edges_equal_stack_reference(self, case):
        # level-by-level and frame-by-frame visits evaluate the same candidates
        # with the same arithmetic, so the edges agree exactly, ties included
        kind, u, w, h = case
        assert np.array_equal(_weighted_jenks_dp(u, w, h), stack_reference_edges(u, w, h))

    @settings(max_examples=40, deadline=None)
    @given(weighted_points(max_p=300))
    def test_agrees_with_quadratic_reference(self, case):
        kind, u, w, h = case
        got = _weighted_jenks_dp(u, w, h)
        want, _ = quadratic_reference_edges(u, w, h)
        # Equal-cost ties can round differently in the full scan, so exact edge
        # equality is asserted where ties are improbable; optimality always.
        if kind in ("random", "heavy"):
            assert np.array_equal(got, want)
        scale = max(1.0, weighted_ssd(u, w, [0, u.size]))
        assert weighted_ssd(u, w, got) <= weighted_ssd(u, w, want) + 1e-9 * scale

    def test_equal_cost_tie_goes_to_smallest_predecessor(self):
        # 0..4 in two classes: {0,1}|{2,3,4} and {0,1,2}|{3,4} both cost 2.5 exactly
        u, w = np.arange(5.0), np.ones(5)
        assert _weighted_jenks_dp(u, w, 2).tolist() == [0, 2, 5]
        assert stack_reference_edges(u, w, 2).tolist() == [0, 2, 5]

    def test_one_value_per_class(self):
        # p == h: every range has exactly one candidate predecessor
        gen = Rng(7, "jenks").generator()
        for p in (1, 2, 7, 64, 333):
            u = np.sort(gen.uniform(0, 1, p))
            w = gen.integers(1, 10**6, p).astype(np.float64)
            assert _weighted_jenks_dp(u, w, p).tolist() == list(range(p + 1))

    def test_overflowing_spread_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            jenks_breaks([0.0, 1e200, 2e200, 3e200], 2)


class TestAllocateBudget:
    def test_spot_check_80_20(self):
        part = DensityPartition(
            clusters=[np.arange(80), np.arange(80, 100)], breaks=np.array([0.5])
        )
        out = allocate_budget(part, 10, 0.25, 100)
        assert np.allclose(out.ratios, RATIO_80_20, atol=1e-7)
        assert out.budgets.tolist() == [0, 10]

    def test_high_temperature_flattens(self):
        part = DensityPartition(
            clusters=[np.arange(99), np.arange(99, 100)], breaks=np.array([0.5])
        )
        out = allocate_budget(part, 10, 1e9, 100)
        assert np.allclose(out.ratios, [0.5, 0.5], atol=1e-6)

    def test_low_temperature_concentrates_on_small_cluster(self):
        part = DensityPartition(
            clusters=[np.arange(99), np.arange(99, 100)], breaks=np.array([0.5])
        )
        out = allocate_budget(part, 1, 0.01, 100)
        assert out.ratios[1] > 1.0 - 1e-9

    def test_ratios_sum_to_one(self):
        gen = Rng(5, "budget").generator()
        sizes = [7, 13, 29, 3]
        clusters, start = [], 0
        for s in sizes:
            clusters.append(np.arange(start, start + s))
            start += s
        part = DensityPartition(clusters=clusters, breaks=np.zeros(3))
        out = allocate_budget(part, 11, 0.25, sum(sizes))
        assert abs(out.ratios.sum() - 1.0) <= 1e-9
        assert np.all(out.ratios > 0)

    def test_clamps_budget_with_warning(self):
        part = DensityPartition(clusters=[np.arange(4), np.arange(4, 6)], breaks=np.zeros(1))
        with pytest.warns(UserWarning, match="clamping"):
            out = allocate_budget(part, 50, 0.25, 6)
        assert out.budgets.sum() == 6
        assert out.budgets.tolist() == [4, 2]

    def test_caps_respect_cluster_sizes(self):
        part = DensityPartition(clusters=[np.arange(2), np.arange(2, 42)], breaks=np.zeros(1))
        out = allocate_budget(part, 30, 0.25, 42)
        assert out.budgets[0] <= 2
        assert out.budgets.sum() == 30

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conservation_property(self, data):
        sizes = data.draw(
            st.lists(st.integers(1, 50), min_size=1, max_size=6)
        )
        total = sum(sizes)
        budget = data.draw(st.integers(1, total))
        temperature = data.draw(st.sampled_from([0.1, 0.25, 1.0, 4.0]))
        clusters, start = [], 0
        for s in sizes:
            clusters.append(np.arange(start, start + s))
            start += s
        part = DensityPartition(clusters=clusters, breaks=np.zeros(len(sizes) - 1))
        out = allocate_budget(part, budget, temperature, total)
        assert out.budgets.sum() == budget
        assert np.all(out.budgets >= 0)
        assert np.all(out.budgets <= np.array(sizes))

    def test_permutation_equivariance_distinct_sizes(self):
        sizes = [5, 17, 86, 41]
        perm = [2, 0, 3, 1]

        def build(order):
            clusters, start = [], 0
            for s in [sizes[i] for i in order]:
                clusters.append(np.arange(start, start + s))
                start += s
            return DensityPartition(clusters=clusters, breaks=np.zeros(3))

        base = allocate_budget(build(range(4)), 23, 0.25, sum(sizes))
        permuted = allocate_budget(build(perm), 23, 0.25, sum(sizes))
        assert permuted.budgets.tolist() == [base.budgets[i] for i in perm]
        assert np.allclose(permuted.ratios, [base.ratios[i] for i in perm])

    def test_rejects_bad_arguments(self):
        part = DensityPartition(clusters=[np.arange(5)], breaks=np.zeros(0))
        with pytest.raises(ValueError):
            allocate_budget(part, 0, 0.25, 5)
        with pytest.raises(ValueError):
            allocate_budget(part, 3, 0.0, 5)
        with pytest.raises(ValueError):
            allocate_budget(part, 3, 0.25, 7)
