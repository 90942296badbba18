import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacs.core import AcquisitionConfig, FeatureMatrix, Rng, make_pool
from dacs.density import DensityConvention, DensityProfile
from dacs.partition import allocate_budget
import dacs.core
import dacs.selection
from dacs.selection import (
    SCORED_STRATEGIES,
    STRATEGY_DACS,
    STRATEGY_DENSE_ONLY,
    STRATEGY_READS,
    STRATEGY_SPARSE_ONLY,
    _REF_BLOCK,
    _max_similarity,
    STRATEGIES,
    UncertaintyScores,
    coreset_select,
    dacs_select,
    entropy_top_b,
    expand_and_squeeze,
    kcenter_greedy,
    random_select,
    region_only_select,
    select,
)


def unit(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def sphere_points(n, d, seed):
    gen = Rng(seed, "points").generator()
    return FeatureMatrix(unit(gen.normal(size=(n, d))), unit_norm=True)


def greedy_oracle(X, candidates, reference, n_pick):
    """Reference greedy: explicit loops, no caching."""
    cand = sorted(set(int(i) for i in candidates))
    covered = [int(i) for i in reference]
    picked, trace = [], []
    for _ in range(n_pick):
        best_idx, best_val = None, None
        for c in cand:
            if c in picked:
                continue
            val = max(float(X[c] @ X[r]) for r in covered + picked)
            if best_val is None or val < best_val:
                best_idx, best_val = c, val
        picked.append(best_idx)
        trace.append(best_val)
    return picked, trace


def gather_every_pick_greedy(candidates, reference, n_pick, features, density=None):
    """Reference: the cached greedy that gathers the candidate rows afresh for
    the initial max-similarity pass and again on every pick."""
    cand = np.unique(np.asarray(candidates, np.int64))
    ref = np.asarray(reference, np.int64)
    X = features.data
    picked, trace = [], []
    if ref.size:
        maxsim = np.full(cand.size, -np.inf)
        for start in range(0, ref.size, 2048):
            sims = X[cand] @ X[ref[start : start + 2048]].T
            np.maximum(maxsim, sims.max(axis=1), out=maxsim)
    else:
        first_pos = 0 if density is None else int(np.argmin(density.lookup(cand)))
        u = int(cand[first_pos])
        picked.append(u)
        trace.append(-math.inf)
        maxsim = X[cand] @ X[u]
        maxsim[first_pos] = np.inf
    while len(picked) < n_pick:
        pos = int(np.argmin(maxsim))
        trace.append(float(maxsim[pos]))
        u = int(cand[pos])
        picked.append(u)
        np.maximum(maxsim, X[cand] @ X[u], out=maxsim)
        maxsim[pos] = np.inf
    return picked, trace


def reference_max_similarity(Xc, X, ref, block=2048):
    """Reference: the first k-center pass as one candidates x block product
    per reference block, untiled."""
    out = np.full(Xc.shape[0], -np.inf)
    for start in range(0, ref.size, block):
        sims = Xc @ X[ref[start : start + block]].T
        np.maximum(out, sims.max(axis=1), out=out)
    return out


def brute_force_greedy(candidates, reference, n_pick, features, density=None):
    """Reference greedy that keeps no running state.

    Before every pick it recomputes each candidate's similarity to the whole
    covered set (reference rows plus earlier picks) and scans for the lowest
    maximum, ties to the lowest index. The similarities come from the same
    products kcenter_greedy uses (candidates x reference in one matrix
    product, one matrix-vector product per covered pick), so traces compare
    with ==.
    """
    cand = np.unique(np.asarray(candidates, np.int64))
    ref = np.asarray(reference, np.int64)
    X = features.data
    Xc = X[cand]
    taken, trace = [], []
    if n_pick and ref.size == 0:
        if density is None:
            first = 0
        else:
            vals = density.lookup(cand)
            first = min(range(cand.size), key=lambda i: (vals[i], i))
        taken.append(first)
        trace.append(-math.inf)
    while len(taken) < n_pick:
        blocks = [Xc @ X[ref].T] if ref.size else []
        blocks += [(Xc @ X[cand[pos]])[:, None] for pos in taken]
        cover = np.concatenate(blocks, axis=1).max(axis=1)
        best = None
        for i in range(cand.size):
            if i not in taken and (best is None or cover[i] < cover[best]):
                best = i
        taken.append(best)
        trace.append(float(cover[best]))
    return [int(cand[pos]) for pos in taken], trace


def tied_sphere_rows(seed, n, d, n_distinct, lattice):
    """n unit rows drawn from n_distinct directions: duplicate rows, and on a
    {-1, 0, 1} lattice many exactly equal similarities."""
    gen = Rng(seed, "tied").generator()
    if lattice:
        base = gen.integers(-1, 2, size=(n_distinct, d)).astype(np.float64)
        base[~base.any(axis=1), 0] = 1.0
    else:
        base = gen.normal(size=(n_distinct, d))
    return FeatureMatrix(unit(base[gen.integers(0, n_distinct, size=n)]), unit_norm=True)


def tied_profile(n, seed):
    values = Rng(seed, "tied-density").generator().integers(0, 3, size=n).astype(np.float64)
    return DensityProfile(
        indices=np.arange(n),
        values=values,
        convention=DensityConvention.SIMILARITY_BASED,
        params={},
    )


def assert_matches_brute_force(cand, ref, n_pick, X, density=None):
    got = kcenter_greedy(cand, ref, n_pick, X, density=density)
    want = brute_force_greedy(cand, ref, n_pick, X, density=density)
    assert got[0] == want[0]
    assert got[1] == want[1]


class TestKcenterBruteForce:
    """kcenter_greedy against a greedy that recomputes everything per pick."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 30), label="n")
        X = tied_sphere_rows(
            data.draw(st.integers(0, 10**6), label="rows"),
            n,
            data.draw(st.integers(2, 5), label="d"),
            data.draw(st.integers(1, 6), label="n_distinct"),
            data.draw(st.booleans(), label="lattice"),
        )
        order = data.draw(st.permutations(range(n)), label="order")
        n_ref = data.draw(st.integers(0, n - 1), label="n_ref")
        ref = sorted(order[:n_ref])
        cand = list(order[n_ref:])
        cand += data.draw(st.lists(st.sampled_from(cand), max_size=4), label="repeats")
        n_pick = data.draw(st.integers(0, len(set(cand))), label="n_pick")
        density = tied_profile(n, n) if data.draw(st.booleans(), label="density") else None
        assert_matches_brute_force(cand, ref, n_pick, X, density)

    @pytest.mark.parametrize("with_density", [False, True])
    def test_empty_reference_takes_every_candidate(self, with_density):
        X = tied_sphere_rows(3, 12, 3, 4, lattice=True)
        density = tied_profile(12, 3) if with_density else None
        assert_matches_brute_force(np.arange(12), [], 12, X, density)

    @pytest.mark.parametrize("n_ref", [0, 3])
    def test_single_distinct_row(self, n_ref):
        X = tied_sphere_rows(5, 10, 4, 1, lattice=False)
        picked, _ = kcenter_greedy(np.arange(n_ref, 10), np.arange(n_ref), 10 - n_ref, X)
        # every similarity ties, so picks run in index order
        assert picked == list(range(n_ref, 10))
        assert_matches_brute_force(np.arange(n_ref, 10), np.arange(n_ref), 10 - n_ref, X)


    @pytest.mark.parametrize("with_ref", [False, True])
    def test_sorted_candidates_skip_the_unique_pass(self, monkeypatch, with_ref):
        X = tied_sphere_rows(7, 40, 4, 9, lattice=False)
        cand, ref = np.arange(5, 40, 2), (np.arange(5) if with_ref else [])
        want = kcenter_greedy(cand[::-1].tolist() + [7, 9], ref, 12, X)  # takes np.unique
        calls = []
        real_unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        got = kcenter_greedy(cand, ref, 12, X)
        monkeypatch.undo()
        assert calls == []
        assert got == want


def force_threads(monkeypatch, workers):
    """Run every parallel kernel call on `workers` threads, however small."""
    monkeypatch.setattr(dacs.core, "_PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)


class TestMaxSimilarityTiling:
    """The tiled first pass against one product per reference block."""

    # 61 candidates: tiles of 7 end in a 5-row tail, tiles of 1 (taken as 2)
    # in a one-row tail. Blocks of 8 reference rows: 1 row, exactly one
    # block, two blocks and a one-row third block.
    @pytest.mark.parametrize("tile", [1, 2, 7, 61])
    @pytest.mark.parametrize("n_ref", [1, 8, 17, 29])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_bit_identical_to_untiled(self, tile, n_ref, lattice):
        X = tied_sphere_rows(n_ref + tile, 61 + n_ref, 16, 12, lattice).data
        Xc, ref = X[:61], np.arange(61, 61 + n_ref)
        got = _max_similarity(Xc, X, ref, block=8, tile=tile)
        assert np.array_equal(got, reference_max_similarity(Xc, X, ref, block=8))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_on_random_shapes(self, data):
        n = data.draw(st.integers(1, 90), label="n")
        n_ref = data.draw(st.integers(1, 40), label="n_ref")
        X = tied_sphere_rows(
            data.draw(st.integers(0, 10**6), label="rows"),
            n + n_ref,
            data.draw(st.integers(1, 17), label="d"),
            data.draw(st.integers(1, 8), label="n_distinct"),
            data.draw(st.booleans(), label="lattice"),
        ).data
        # candidates may repeat reference rows and each other
        row = st.integers(0, n + n_ref - 1)
        Xc = X[data.draw(st.lists(row, min_size=n, max_size=n), label="cand")]
        ref = np.asarray(data.draw(st.lists(row, min_size=n_ref, max_size=n_ref), label="ref"))
        block = data.draw(st.integers(1, 12), label="block")
        tile = data.draw(st.integers(1, 100), label="tile")
        got = _max_similarity(Xc, X, ref, block=block, tile=tile)
        assert np.array_equal(got, reference_max_similarity(Xc, X, ref, block=block))

    def test_default_tiles_with_one_row_tail_and_one_column_block(self, monkeypatch):
        # 3,841 candidates leave a one-row tail after ten 384-row tiles, and
        # 2,049 reference rows a one-row last block; on 1, 2 and 3 threads
        X = sphere_points(5890, 16, 11).data
        Xc, ref = X[:3841], np.arange(3841, 5890)
        expected = reference_max_similarity(Xc, X, ref)
        for workers in (1, 2, 3):
            force_threads(monkeypatch, workers)
            assert np.array_equal(_max_similarity(Xc, X, ref), expected), workers

    def test_a_select_scale_pass_across_block_edges(self):
        # The shape of the largest greedy call of a 100k-row select: 37,509
        # candidates against 1,607 reference rows, which the default block
        # splits (the pinned select's references never reach a block edge).
        # Every row maximum must be the one of the untiled product of all
        # 1,607 reference rows. On x86-64 OpenBLAS 0.3.31, 128-row tiles move
        # 5 of them here and 512-row blocks 87.
        X = sphere_points(37_509 + 1_607, 16, 13).data
        Xc, ref = X[:37_509], np.arange(37_509, 37_509 + 1_607)
        assert _REF_BLOCK < ref.size
        expected = reference_max_similarity(Xc, X, ref, block=2048)
        assert np.array_equal(_max_similarity(Xc, X, ref), expected)

    # 15 candidates in tiles of 7 end in a one-row tail. On 3 threads the tail
    # is alone on its thread, and the row it borrows belongs to the tile
    # before it, on another; 40 threads is more threads than tiles. 9 and 17
    # reference rows in blocks of 8 end in a one-column block.
    @pytest.mark.parametrize("workers", [1, 2, 3, 40])
    @pytest.mark.parametrize("n_ref", [1, 8, 9, 17])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_bit_identical_on_any_number_of_threads(self, monkeypatch, workers, n_ref, lattice):
        force_threads(monkeypatch, workers)
        X = tied_sphere_rows(n_ref + workers, 15 + n_ref, 16, 12, lattice).data
        Xc, ref = X[:15], np.arange(15, 15 + n_ref)
        got = _max_similarity(Xc, X, ref, block=8, tile=7)
        assert np.array_equal(got, reference_max_similarity(Xc, X, ref, block=8))

    def test_thread_count_does_not_change_the_tiles(self, monkeypatch):
        # Every candidate lies near one direction and the last 7 of 807
        # reference rows lie nearer it, so each row maximum sits in the last
        # columns. There BLAS rounds the last rows of a product by its own
        # rules (on x86-64 OpenBLAS, 128-row tiles move 42 of these maxima
        # against 384-row ones), so tiles that depended on the thread count
        # would show here.
        gen = Rng(12, "corner").generator()
        v = unit(gen.normal(size=16))
        cand = unit(v + 0.05 * gen.normal(size=(1200, 16)))
        refs = unit(gen.normal(size=(807, 16)))
        refs[-7:] = unit(v + 0.01 * gen.normal(size=(7, 16)))
        X = np.concatenate([cand, refs])
        ref = np.arange(1200, 2007)
        force_threads(monkeypatch, 1)
        one = _max_similarity(X[:1200], X, ref)
        for workers in (2, 3, 5):
            force_threads(monkeypatch, workers)
            assert np.array_equal(_max_similarity(X[:1200], X, ref), one), workers


class TestKcenterGreedy:
    def test_prefers_the_antipode(self):
        X = FeatureMatrix(
            np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]), unit_norm=True
        )
        picked, trace = kcenter_greedy([1, 2], [0], 1, X)
        assert picked == [1]
        assert trace == [-1.0]

    def test_tie_breaks_to_lowest_index(self):
        X = FeatureMatrix(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), unit_norm=True
        )
        picked, _ = kcenter_greedy([1, 2], [0], 1, X)
        assert picked == [1]

    def test_matches_oracle_step_for_step(self):
        for seed in range(8):
            X = sphere_points(30, 6, seed)
            gen = Rng(seed, "case").generator()
            ref = gen.choice(30, size=4, replace=False)
            cand = np.setdiff1d(np.arange(30), ref)
            picked, trace = kcenter_greedy(cand, ref, 10, X)
            want_picked, want_trace = greedy_oracle(X.data, cand, ref, 10)
            assert picked == want_picked
            assert np.allclose(trace, want_trace, atol=1e-12)

    # 2500 reference rows span two blocks of the initial max-similarity pass
    @pytest.mark.parametrize("n_ref", [0, 40, 2500])
    def test_bit_identical_to_gather_every_pick(self, n_ref):
        X = sphere_points(4000, 16, 7)
        ref = np.sort(Rng(7, "ref").generator().choice(4000, size=n_ref, replace=False))
        cand = np.setdiff1d(np.arange(4000), ref)
        profile = DensityProfile(
            indices=np.arange(4000),
            values=Rng(7, "dens").generator().uniform(size=4000),
            convention=DensityConvention.SIMILARITY_BASED,
            params={},
        )
        got = kcenter_greedy(cand, ref, 150, X, density=profile)
        want = gather_every_pick_greedy(cand, ref, 150, X, density=profile)
        assert got[0] == want[0]
        assert got[1] == want[1]

    def test_trace_is_nondecreasing(self):
        # each pick's coverage value can only grow as the covered set grows
        for seed in range(5):
            X = sphere_points(40, 5, seed + 100)
            _, trace = kcenter_greedy(np.arange(5, 40), np.arange(5), 20, X)
            assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_cold_start_without_profile_takes_lowest_index(self):
        X = sphere_points(10, 4, 0)
        picked, trace = kcenter_greedy([7, 3, 9], [], 2, X)
        assert picked[0] == 3
        assert trace[0] == -math.inf

    def test_cold_start_with_profile_takes_sparsest(self):
        X = sphere_points(10, 4, 0)
        profile = DensityProfile(
            indices=np.arange(10),
            values=np.array([5.0, 5, 5, 9, 5, 5, 5, 1.0, 5, 5]),
            convention=DensityConvention.SIMILARITY_BASED,
            params={},
        )
        picked, _ = kcenter_greedy([3, 7, 9], [], 2, X, density=profile)
        assert picked[0] == 7

    def test_rejects_overdraw(self):
        X = sphere_points(5, 3, 1)
        with pytest.raises(ValueError, match="cannot pick"):
            kcenter_greedy([1, 2], [0], 3, X)

    def test_zero_pick_is_empty(self):
        X = sphere_points(5, 3, 1)
        assert kcenter_greedy([1, 2], [0], 0, X) == ([], [])


def clustered_pool(seed, n_per=30, d=8, n_clusters=2):
    gen = Rng(seed, "clustered").generator()
    centers = unit(gen.normal(size=(n_clusters, d)))
    pts = np.concatenate(
        [centers[i] + 0.25 * gen.normal(size=(n_per, d)) for i in range(n_clusters)]
    )
    X = FeatureMatrix(unit(pts), unit_norm=True)
    pool = make_pool(n_per * n_clusters, [0, n_per])
    return X, pool


class TestDacsSelect:
    def test_budget_conservation_and_uniqueness(self):
        X, pool = clustered_pool(0)
        cfg = AcquisitionConfig(budget=12, n_buckets=4, n_breaks=2)
        out = dacs_select(pool, X, cfg, Rng(0, "sel"))
        assert len(out.selected) == 12
        assert len(set(out.selected)) == 12
        assert set(out.selected) <= set(pool.unlabeled.tolist())
        assert sum(c.budget for c in out.per_cluster) == 12
        for c in out.per_cluster:
            assert len(c.selected) == c.budget

    def test_cluster_budgets_match_allocation_table(self):
        X, pool = clustered_pool(1)
        cfg = AcquisitionConfig(budget=10, n_buckets=4, n_breaks=2)
        out = dacs_select(pool, X, cfg, Rng(1, "sel"))
        table = out.diagnostics["clusters"]
        assert [row["budget"] for row in table] == [c.budget for c in out.per_cluster]
        assert sum(row["size"] for row in table) == pool.unlabeled.size
        # sparsest class first: mean windowed density must ascend
        means = [row["mean_density"] for row in table]
        assert means == sorted(means)

    def test_single_class_reduces_to_plain_coreset(self):
        X, pool = clustered_pool(2)
        cfg = AcquisitionConfig(budget=9, n_buckets=4, n_breaks=1)
        a = dacs_select(pool, X, cfg, Rng(2, "sel"))
        b = coreset_select(pool, X, 9)
        assert a.selected == b.selected

    def test_deterministic(self):
        X, pool = clustered_pool(3)
        cfg = AcquisitionConfig(budget=8, n_buckets=4, n_breaks=2)
        a = dacs_select(pool, X, cfg, Rng(7, "sel"))
        b = dacs_select(pool, X, cfg, Rng(7, "sel"))
        assert a.selected == b.selected
        assert a.diagnostics["max_similarity"] == b.diagnostics["max_similarity"]

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_same_result_on_any_number_of_threads(self, monkeypatch, workers):
        # 2,000 rows: several density chunks and several 384-row candidate
        # tiles per class, all split across threads
        X, pool = clustered_pool(5, n_per=1000, d=8)
        cfg = AcquisitionConfig(budget=40, n_buckets=8, n_breaks=3)
        one = dacs_select(pool, X, cfg, Rng(7, "sel"))
        force_threads(monkeypatch, workers)
        many = dacs_select(pool, X, cfg, Rng(7, "sel"))
        assert many.selected == one.selected
        assert many.diagnostics == one.diagnostics

    def test_falls_back_when_density_values_collapse(self):
        # two coincident groups give 2 distinct density values at most
        base = unit(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        X = FeatureMatrix(np.repeat(base, 8, axis=0), unit_norm=True)
        pool = make_pool(16, [0])
        cfg = AcquisitionConfig(budget=3, n_buckets=2, n_breaks=4)
        with pytest.warns(UserWarning, match="distinct"):
            out = dacs_select(pool, X, cfg, Rng(0, "sel"))
        assert len(out.selected) == 3
        assert out.diagnostics["h_used"] < 4

    def test_clamps_budget_over_pool(self):
        X, pool = clustered_pool(4)
        cfg = AcquisitionConfig(budget=59, n_buckets=4, n_breaks=2)
        with pytest.warns(UserWarning, match="clamping"):
            out = dacs_select(pool, X, replace(cfg, budget=60), Rng(0, "sel"))
        # conservation under clamping: every unlabeled sample gets picked
        assert sorted(out.selected) == sorted(pool.unlabeled.tolist())
        assert sum(c.budget for c in out.per_cluster) == pool.unlabeled.size

    @pytest.mark.parametrize("labeled", [[], [0, 17, 40]])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_per_class(self, seed, labeled):
        # duplicated rows give tied similarities and tied densities
        X0, _ = clustered_pool(seed, n_per=14, d=6, n_clusters=3)
        X = FeatureMatrix(np.repeat(X0.data, 2, axis=0)[:80], unit_norm=True)
        pool = make_pool(80, labeled)
        cfg = AcquisitionConfig(budget=15, n_buckets=4, n_breaks=3)
        got = dacs_select(pool, X, cfg, Rng(seed, "sel"))
        profile, partition = dacs.selection._density_pipeline(pool, X, cfg, Rng(seed, "sel"))
        partition = allocate_budget(partition, cfg.budget, cfg.temperature, pool.unlabeled.size)
        running, trace = [], []
        for ci, members in enumerate(partition.clusters):
            # every class sees the labeled rows and the earlier classes' picks
            ref = pool.labeled.tolist() + running
            picked, t = brute_force_greedy(
                pool.unlabeled[members], ref, int(partition.budgets[ci]), X, density=profile
            )
            assert got.per_cluster[ci].selected == picked
            running += picked
            trace += t
        assert got.selected == running
        assert got.diagnostics["max_similarity"] == trace


class TestCoresetSelect:
    def test_matches_oracle(self):
        X, pool = clustered_pool(5)
        out = coreset_select(pool, X, 7)
        want, _ = greedy_oracle(X.data, pool.unlabeled, pool.labeled, 7)
        assert out.selected == want

    def test_rejects_budget_over_pool(self):
        X, pool = clustered_pool(5)
        with pytest.raises(ValueError, match="exceeds unlabeled pool"):
            coreset_select(pool, X, pool.unlabeled.size + 1)


class TestRandomSelect:
    def test_deterministic_unique_subset(self):
        pool = make_pool(50, [0, 1])
        a = random_select(pool, 10, Rng(5, "al"))
        b = random_select(pool, 10, Rng(5, "al"))
        assert a.selected == b.selected
        assert len(set(a.selected)) == 10
        assert set(a.selected) <= set(pool.unlabeled.tolist())

    def test_seed_changes_pick(self):
        pool = make_pool(200, [0])
        a = random_select(pool, 10, Rng(5, "al"))
        b = random_select(pool, 10, Rng(6, "al"))
        assert a.selected != b.selected


class TestRegionOnlySelect:
    def test_stays_inside_the_chosen_region(self):
        X, pool = clustered_pool(6, n_per=40)
        cfg = AcquisitionConfig(budget=5, n_buckets=4)
        for which in ("sparsest", "densest"):
            out = region_only_select(pool, X, cfg, which, Rng(6, "sel"))
            assert len(out.selected) == 5
            assert out.diagnostics["region_size"] >= 5
            assert len(out.per_cluster) == 1

    def test_sparse_and_dense_disagree(self):
        X, pool = clustered_pool(6, n_per=40)
        cfg = AcquisitionConfig(budget=5, n_buckets=4)
        sparse = region_only_select(pool, X, cfg, "sparsest", Rng(6, "sel"))
        dense = region_only_select(pool, X, cfg, "densest", Rng(6, "sel"))
        assert set(sparse.selected).isdisjoint(dense.selected)

    def test_clamps_to_region_size_with_warning(self):
        X, pool = clustered_pool(7, n_per=20)
        cfg = AcquisitionConfig(budget=19, n_buckets=4)
        with pytest.warns(UserWarning, match="clamping"):
            out = region_only_select(pool, X, cfg, "sparsest", Rng(7, "sel"))
        assert len(out.selected) == out.diagnostics["region_size"]

    def test_rejects_unknown_region(self):
        X, pool = clustered_pool(7)
        cfg = AcquisitionConfig(budget=2, n_buckets=4)
        with pytest.raises(ValueError, match="sparsest"):
            region_only_select(pool, X, cfg, "middling", Rng(0, "sel"))


def expand_fixture():
    ang = np.array([0.5, 1.6, 2.7, 3.8, 5.0])
    X = FeatureMatrix(np.stack([np.cos(ang), np.sin(ang)], axis=1), unit_norm=True)
    pool = make_pool(5, [0])
    cfg = AcquisitionConfig(budget=2, n_buckets=2, n_breaks=1)
    return X, pool, cfg


class TestExpandAndSqueeze:
    def test_keeps_top_scores_in_selection_order(self):
        X, pool, cfg = expand_fixture()
        scores = UncertaintyScores(
            scores=np.array([0.0, 0.9, 0.1, 0.8, 0.2]), source="test"
        )
        inner = dacs_select(pool, X, replace(cfg, budget=4), Rng(3, "sel"))
        assert inner.selected == [3, 4, 1, 2]
        out = expand_and_squeeze(pool, X, cfg, scores, Rng(3, "sel"))
        # top-2 scores live at 1 and 3; order follows the inner selection
        assert out.selected == [3, 1]
        assert out.diagnostics["expanded_budget"] == 4
        assert sum(c.budget for c in out.per_cluster) == 2

    def test_uniform_scores_keep_the_earliest_picks(self):
        X, pool, cfg = expand_fixture()
        scores = UncertaintyScores(scores=np.full(5, 0.5), source="test")
        inner = dacs_select(pool, X, replace(cfg, budget=4), Rng(3, "sel"))
        out = expand_and_squeeze(pool, X, cfg, scores, Rng(3, "sel"))
        assert out.selected == inner.selected[:2]

    def test_nan_score_names_the_candidate(self):
        X, pool, cfg = expand_fixture()
        bad = np.array([0.0, 0.9, np.nan, 0.8, 0.2])
        with pytest.raises(ValueError, match="index 2"):
            expand_and_squeeze(
                pool, X, cfg, UncertaintyScores(scores=bad, source="test"), Rng(3, "sel")
            )

    def test_short_score_vector_rejected(self):
        X, pool, cfg = expand_fixture()
        with pytest.raises(ValueError, match="no uncertainty score"):
            expand_and_squeeze(
                pool,
                X,
                cfg,
                UncertaintyScores(scores=np.zeros(3), source="test"),
                Rng(3, "sel"),
            )


class TestEntropyTopB:
    def test_highest_scores_win_and_ties_keep_index_order(self):
        pool = make_pool(8, [1])
        scores = UncertaintyScores(scores=np.array([0.5, 9.0, 0.7, 0.5, 0.7, 0.1, 0.7, 0.5]))
        out = entropy_top_b(pool, scores, 4)
        assert out.selected == [2, 4, 6, 0]
        assert out.per_cluster[0].selected == out.selected

    def test_short_score_vector_rejected(self):
        with pytest.raises(ValueError, match="3 uncertainty scores for a pool of 8"):
            entropy_top_b(make_pool(8, [1]), UncertaintyScores(scores=np.zeros(3)), 2)


class TestSelectDispatch:
    def test_unknown_strategy_rejected(self):
        X, pool, cfg = expand_fixture()
        with pytest.raises(ValueError, match="unknown strategy 'oracle'"):
            select("oracle", pool, X, cfg, Rng(3, "sel"))

    @pytest.mark.parametrize("strategy", SCORED_STRATEGIES)
    def test_scored_strategy_requires_scores(self, strategy):
        X, pool, cfg = expand_fixture()
        assert strategy in STRATEGIES
        with pytest.raises(ValueError, match="requires uncertainty scores"):
            select(strategy, pool, X, cfg, Rng(3, "sel"))

    def test_entries_call_through_module_globals(self, monkeypatch):
        X, pool, cfg = expand_fixture()
        calls = []
        original = dacs.selection.dacs_select

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dacs.selection, "dacs_select", recording)
        out = select("dacs", pool, X, cfg, Rng(3, "sel"))
        assert len(calls) == 1
        assert out.selected == original(pool, X, cfg, Rng(3, "sel")).selected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_budget_over_the_pool(self, strategy):
        # dacs clamps to the pool and the region strategies to their class,
        # each with a warning; every other strategy refuses the budget
        X, pool = clustered_pool(8, n_per=10)
        n = pool.unlabeled.size
        cfg = AcquisitionConfig(budget=n + 2, n_buckets=4, n_breaks=2)
        scores = UncertaintyScores(scores=np.linspace(0.0, 1.0, pool.n_total))
        over = f"budget {n + 2} exceeds unlabeled pool size {n}"
        if strategy == STRATEGY_DACS:
            with pytest.warns(UserWarning, match=over + "; clamping"):
                out = select(strategy, pool, X, cfg, Rng(8, "sel"), scores)
            assert sorted(out.selected) == pool.unlabeled.tolist()
        elif strategy in (STRATEGY_SPARSE_ONLY, STRATEGY_DENSE_ONLY):
            with pytest.warns(UserWarning, match="class size .*; clamping"):
                out = select(strategy, pool, X, cfg, Rng(8, "sel"), scores)
            assert len(out.selected) == out.diagnostics["region_size"] < n
        else:
            with pytest.raises(ValueError, match=over + "$"):
                select(strategy, pool, X, cfg, Rng(8, "sel"), scores)


class TestStrategyReads:
    """STRATEGY_READS against select(): a setting moves a strategy's picks iff it is declared.

    The pool is 40 rows on the 4-D sphere (points seed 0), two of them
    labeled, with a budget of 6: under every setting below, its region
    classes all hold more than 6 rows, so nothing clamps or warns. Each setting's
    two values are far apart, so that a strategy that reads it cannot miss
    the change: 4 and 8 buckets hash into different chunks; 3 classes and 2
    split the spectrum differently; temperature 0.05 gives nearly the whole
    budget to the smallest class and 20 splits it nearly evenly; seeds 0
    and 1 draw different rotations and samples; and the two score vectors
    rank the pool in opposite orders. Most 40-row pools of this generator show every declared
    change too; this one is fixed so the test is deterministic. A wrong entry
    in either direction, such as a seed the registry leaves out, fails here.
    """

    N = 40
    BASE = {"buckets": 4, "breaks": 3, "temperature": 0.05, "seed": 0,
            "scores": np.linspace(0.0, 1.0, N)}
    OTHER = {"buckets": 8, "breaks": 2, "temperature": 20.0, "seed": 1,
             "scores": np.linspace(1.0, 0.0, N)}

    def picks(self, strategy, settings):
        X, pool = sphere_points(self.N, 4, 0), make_pool(self.N, [0, 1])
        cfg = AcquisitionConfig(
            budget=6, n_buckets=settings["buckets"], n_breaks=settings["breaks"],
            temperature=settings["temperature"],
        )
        rng = Rng(settings["seed"], "reads")
        return select(strategy, pool, X, cfg, rng, UncertaintyScores(scores=settings["scores"])).selected

    def test_every_strategy_declares_its_reads(self):
        assert set(STRATEGY_READS) == set(STRATEGIES)
        assert all(set(reads) <= set(self.BASE) for reads in STRATEGY_READS.values())

    @pytest.mark.parametrize("setting", list(BASE))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_setting_moves_the_picks_iff_declared(self, strategy, setting):
        moved = self.picks(strategy, {**self.BASE, setting: self.OTHER[setting]})
        assert (moved != self.picks(strategy, self.BASE)) == (setting in STRATEGY_READS[strategy])
