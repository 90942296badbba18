"""End-to-end acceptance suite.

One test per shipping criterion, run in order. Each prints a single
`[acceptance] criterion N (name): PASS|FAIL` line (visible under `pytest -s`
or in captured output) and enforces the stated tolerance plus a wall-clock
budget. Criteria 6 and 7 share one simulation grid; the grid's runtime budget
is asserted once, in criterion 6.
"""

import itertools
import json
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from dacs.core import (
    AcquisitionConfig,
    FeatureMatrix,
    Rng,
    commit_acquisition,
    make_pool,
    normalize_rows,
)
from dacs.density import exact_knn_density, lsh_assign, lsh_density
from dacs.model import ModelConfig, init_model, loss_and_grads
from dacs.partition import DensityPartition, allocate_budget, jenks_breaks
from dacs.selection import coreset_select, dacs_select, kcenter_greedy, random_select
from dacs.simulate import gen_gaussian_mixture, gen_near_duplicate, run_al

# softmax((1 - [0.8, 0.2]) / 0.25), frozen from direct evaluation
RATIO_80_20 = (0.0831727, 0.9168273)

# per-cluster noise scales for the density-fidelity mixture; the point of the
# heterogeneous spreads is to create genuine between-cluster density variation
# for the estimators to rank (equal spreads leave almost nothing but noise)
FIDELITY_SPREADS = (0.3, 0.6, 1.0, 1.5, 2.2)


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------- criterion 1


def exhaustive_jenks_objective(values, h):
    """Minimum within-class squared deviation over every contiguous split.

    Enumerates all C(p-1, h-1) edge placements over the p distinct values and
    evaluates them with prefix sums; independent of the production solver.
    """
    v = np.asarray(values, dtype=np.float64)
    u, w = np.unique(v, return_counts=True)
    p = u.size
    s0 = np.concatenate([[0.0], np.cumsum(w)])
    s1 = np.concatenate([[0.0], np.cumsum(w * u)])
    s2 = np.concatenate([[0.0], np.cumsum(w * u * u)])
    cuts = np.array(
        list(itertools.combinations(range(1, p), h - 1)), dtype=np.int64
    ).reshape(-1, h - 1)
    n_c = cuts.shape[0]
    edges = np.hstack(
        [np.zeros((n_c, 1), np.int64), cuts, np.full((n_c, 1), p, np.int64)]
    )
    a, b = edges[:, :-1], edges[:, 1:]
    ww = s0[b] - s0[a]
    m1 = s1[b] - s1[a]
    costs = ((s2[b] - s2[a]) - m1 * m1 / ww).sum(axis=1)
    return float(costs.min())


def partition_objective(values, partition):
    v = np.asarray(values, dtype=np.float64)
    labels = np.searchsorted(partition.breaks, v, side="left")
    total = 0.0
    for c in np.unique(labels):
        seg = v[labels == c]
        total += float(((seg - seg.mean()) ** 2).sum())
    return total


def test_criterion_01_segmentation_matches_exhaustive_search():
    gen = np.random.default_rng(20260818)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        h = int(gen.integers(2, 6))
        n = int(gen.integers(h, 65))
        if gen.random() < 0.5:
            vals = gen.uniform(0.0, 10.0, size=n)
        else:
            # duplicate-heavy instance with at least h distinct values
            extra = int(gen.integers(0, min(6, n - h + 1)))
            grid = np.arange(h + extra, dtype=np.float64)
            vals = gen.choice(grid, size=n)
            vals[: grid.size] = grid
        got = partition_objective(vals, jenks_breaks(vals, h))
        want = exhaustive_jenks_objective(vals, h)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _verdict(
        1, "segmentation matches exhaustive search", ok
    ), f"worst deviation {worst:.3e} (limit 1e-9), elapsed {elapsed:.1f}s (limit 10s)"


# ---------------------------------------------------------------- criterion 2


def brute_force_greedy(X, candidates, reference, n_pick):
    """Reference greedy: explicit loops, fresh max each step, no caching."""
    cand = sorted(set(int(i) for i in candidates))
    covered = [int(i) for i in reference]
    picked, trace = [], []
    for _ in range(n_pick):
        if not covered and not picked:
            picked.append(cand[0])
            trace.append(-np.inf)
            continue
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


def test_criterion_02_greedy_matches_brute_force_traces():
    t0 = time.perf_counter()
    mismatches = []
    for case in range(100):
        gen = Rng(case, "greedy-oracle").generator()
        n = int(gen.integers(6, 41))
        d = int(gen.integers(2, 9))
        X = normalize_rows(FeatureMatrix(gen.standard_normal((n, d))))
        n_ref = int(gen.integers(0, 5))
        ref = gen.choice(n, size=n_ref, replace=False)
        cand = np.setdiff1d(np.arange(n), ref)
        n_pick = int(gen.integers(1, min(12, cand.size) + 1))
        picked, trace = kcenter_greedy(cand, ref, n_pick, X)
        want_picked, want_trace = brute_force_greedy(X.data, cand, ref, n_pick)
        if picked != want_picked or not np.allclose(trace, want_trace, atol=1e-12):
            mismatches.append(case)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 5.0
    assert _verdict(
        2, "greedy selection matches brute-force traces", ok
    ), f"mismatched cases {mismatches}, elapsed {elapsed:.1f}s (limit 5s)"


# ---------------------------------------------------------------- criterion 3


def fidelity_mixture(per_cluster: int) -> FeatureMatrix:
    """Five 16-D clusters with heterogeneous spreads, rows normalized."""
    gen = Rng(7, "fidelity").generator()
    q, _ = np.linalg.qr(gen.standard_normal((16, 5)))
    centers = q.T * 2.2
    parts = [
        centers[i] + s * gen.standard_normal((per_cluster, 16))
        for i, s in enumerate(FIDELITY_SPREADS)
    ]
    return normalize_rows(FeatureMatrix(np.vstack(parts)))


def test_criterion_03_fast_density_tracks_exact_oracle():
    x = fidelity_mixture(400)  # n = 2000
    t0 = time.perf_counter()
    exact = exact_knn_density(x, k_nn=20, metric="cosine-distance")
    rhos = []
    for seed in range(5):
        fast = lsh_density(x, lsh_assign(x, 100, Rng(seed)))
        rhos.append(float(stats.spearmanr(fast.values, -exact.values).statistic))
    fidelity_elapsed = time.perf_counter() - t0

    big = fidelity_mixture(4000)  # n = 20000
    t0 = time.perf_counter()
    exact_knn_density(big, k_nn=20, metric="cosine-distance")
    t_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    lsh_density(big, lsh_assign(big, 100, Rng(0)))
    t_fast = time.perf_counter() - t0
    speedup = t_exact / t_fast

    ok = min(rhos) >= 0.5 and fidelity_elapsed < 10.0 and speedup >= 10.0
    assert _verdict(3, "fast density tracks the exact oracle", ok), (
        f"spearman per seed {['%.3f' % r for r in rhos]} (floor 0.5), "
        f"fidelity {fidelity_elapsed:.1f}s (limit 10s), speedup {speedup:.0f}x (floor 10x)"
    )


# ------------------------------------------------------- shared desk datasets


@pytest.fixture(scope="module")
def default_mixture():
    return gen_gaussian_mixture(5, 1200, 32, 1.0, 1.4, Rng(7))


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_density_anticorrelates_with_uncertainty(default_mixture):
    acq = AcquisitionConfig(budget=96, n_buckets=100, n_breaks=4, temperature=0.25)
    mc = ModelConfig(n_classes=5, reduced_dim=16)
    t0 = time.perf_counter()
    passes = []
    pairs = []
    for seed in (0, 1, 2):
        # 5% of the 4800-sample training split
        rep = run_al(
            default_mixture, "random", acq, mc, cycles=0, init_labeled=240, rng=Rng(seed)
        )
        pairs.append((rep.rho_entropy, rep.rho_loss))
        passes.append(rep.rho_entropy <= -0.2 and rep.rho_loss <= 0.0)
    elapsed = time.perf_counter() - t0
    ok = sum(passes) >= 2 and elapsed < 60.0
    assert _verdict(4, "density anticorrelates with uncertainty", ok), (
        f"(rho_entropy, rho_loss) per seed "
        f"{[('%.3f' % a, '%.3f' % b) for a, b in pairs]} "
        f"(need rho_entropy <= -0.2 and rho_loss <= 0 on 2 of 3 seeds), "
        f"elapsed {elapsed:.1f}s (limit 60s)"
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_sparse_regions_beat_dense_regions(default_mixture):
    acq = AcquisitionConfig(budget=96, n_buckets=100, n_breaks=4, temperature=0.25)
    mc = ModelConfig(n_classes=5, reduced_dim=16)
    t0 = time.perf_counter()
    finals = {}
    for strategy in ("sparse-only", "dense-only"):
        finals[strategy] = [
            run_al(
                default_mixture, strategy, acq, mc, cycles=8, init_labeled=96, rng=Rng(s)
            ).final_accuracy
            for s in (0, 1, 2)
        ]
    elapsed = time.perf_counter() - t0
    sparse, dense = np.mean(finals["sparse-only"]), np.mean(finals["dense-only"])
    ok = sparse > dense and elapsed < 120.0
    assert _verdict(5, "sparse-region picks beat dense-region picks", ok), (
        f"mean final accuracy sparse-only {sparse:.4f} vs dense-only {dense:.4f} "
        f"(need strictly greater), elapsed {elapsed:.1f}s (limit 120s)"
    )


# ------------------------------------------------- criteria 6 and 7: one grid


@pytest.fixture(scope="module")
def near_duplicate_grid():
    """4 strategies x 3 seeds on the redundant pool; built once, used twice."""
    base = gen_gaussian_mixture(5, 400, 32, 1.0, 1.4, Rng(7))
    data = gen_near_duplicate(base, replication=2, noise_sigma=0.1, rng=Rng(7))
    acq = AcquisitionConfig(budget=96, n_buckets=100, n_breaks=4, temperature=0.25)
    mc = ModelConfig(n_classes=5, reduced_dim=16)
    t0 = time.perf_counter()
    grid = {}
    for strategy in ("dacs", "coreset", "random", "entropy-top-b"):
        accs, dups, divs, infos = [], [], [], []
        for seed in (0, 1, 2):
            rep = run_al(data, strategy, acq, mc, cycles=8, init_labeled=96, rng=Rng(seed))
            accs.append(rep.final_accuracy)
            dups.append(
                np.mean(
                    [
                        r.near_duplicate_fraction
                        for r in rep.records
                        if r.near_duplicate_fraction is not None
                    ]
                )
            )
            divs.append(np.mean([r.diversity for r in rep.records if r.diversity is not None]))
            infos.append(
                np.mean(
                    [r.informativeness for r in rep.records if r.informativeness is not None]
                )
            )
        grid[strategy] = {
            "acc": float(np.mean(accs)),
            "dup": float(np.mean(dups)),
            "div": float(np.mean(divs)),
            "info": float(np.mean(infos)),
        }
    grid["elapsed"] = time.perf_counter() - t0
    return grid


def test_criterion_06_ordering_on_redundant_pool(near_duplicate_grid):
    g = near_duplicate_grid
    beats_coreset = g["dacs"]["acc"] > g["coreset"]["acc"]
    beats_random = g["dacs"]["acc"] > g["random"]["acc"]
    fewer_duplicates = g["dacs"]["dup"] < g["entropy-top-b"]["dup"]
    in_budget = g["elapsed"] < 180.0
    ok = beats_coreset and beats_random and fewer_duplicates and in_budget
    assert _verdict(6, "accuracy ordering on the redundant pool", ok), (
        f"mean final accuracy dacs {g['dacs']['acc']:.4f} vs coreset "
        f"{g['coreset']['acc']:.4f} vs random {g['random']['acc']:.4f} "
        f"(need dacs strictly above both); near-duplicate fraction dacs "
        f"{g['dacs']['dup']:.4f} vs entropy-top-b {g['entropy-top-b']['dup']:.4f} "
        f"(need dacs lower); grid elapsed {g['elapsed']:.1f}s (limit 180s)"
    )


def test_criterion_07_subset_quality_ordering(near_duplicate_grid):
    g = near_duplicate_grid
    diverse = g["dacs"]["div"] >= g["entropy-top-b"]["div"]
    informative = g["dacs"]["info"] >= g["coreset"]["info"]
    ok = diverse and informative
    assert _verdict(7, "subset diversity and informativeness ordering", ok), (
        f"mean diversity dacs {g['dacs']['div']:.4f} vs entropy-top-b "
        f"{g['entropy-top-b']['div']:.4f} (need dacs >= entropy-top-b); "
        f"mean informativeness dacs {g['dacs']['info']:.4f} vs coreset "
        f"{g['coreset']['info']:.4f} (need dacs >= coreset)"
    )


# ---------------------------------------------------------------- criterion 8


def clustered_sphere(n_per: int, seed: int) -> FeatureMatrix:
    gen = Rng(seed, "invariants").generator()
    centers = np.eye(3, 8) * 2.0
    pts = np.vstack([centers[i] + 0.4 * gen.standard_normal((n_per, 8)) for i in range(3)])
    return normalize_rows(FeatureMatrix(pts))


def _fd_grad(loss_fn, params, key, eps=1e-6):
    p = params[key]
    out = np.zeros_like(p)
    flat = p.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        out.ravel()[i] = (hi - lo) / (2 * eps)
    return out


def _pool_invariants_hold() -> list:
    problems = []
    x = clustered_sphere(80, 5)
    acq = AcquisitionConfig(budget=16, n_buckets=8, n_breaks=3, temperature=0.25)
    rng = Rng(9, "accept")
    results = {}
    pool = make_pool(240, np.arange(12))
    results["random"] = random_select(pool, 16, rng)
    results["coreset"] = coreset_select(pool, x, 16)
    results["dacs"] = dacs_select(pool, x, acq, rng)
    for name, res in results.items():
        sel = np.asarray(res.selected)
        if np.unique(sel).size != sel.size:
            problems.append(f"{name}: duplicate picks")
        if not np.all(np.isin(sel, pool.unlabeled)):
            problems.append(f"{name}: picked labeled or out-of-pool indices")
        if sel.size != 16:
            problems.append(f"{name}: picked {sel.size} of budget 16")
        after = commit_acquisition(pool, res.selected)
        union = np.union1d(after.labeled, after.unlabeled)
        if not np.array_equal(union, np.arange(240)):
            problems.append(f"{name}: commit does not partition the pool")
        if np.intersect1d(after.labeled, after.unlabeled).size:
            problems.append(f"{name}: labeled and unlabeled overlap")
    # budget conservation: per-cluster budgets sum to min(b, |U|)
    if sum(len(c.selected) for c in results["dacs"].per_cluster) != 16:
        problems.append("dacs: per-cluster budgets do not sum to the budget")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clamped = dacs_select(pool, x, AcquisitionConfig(budget=500, n_buckets=8, n_breaks=3), rng)
    if len(clamped.selected) != pool.unlabeled.size:
        problems.append("dacs: over-budget selection did not clamp to the pool size")
    return problems


def _h1_equals_coreset() -> list:
    x = clustered_sphere(50, 11)
    pool = make_pool(150, np.arange(8))
    one = dacs_select(pool, x, AcquisitionConfig(budget=20, n_buckets=8, n_breaks=1), Rng(3))
    flat = coreset_select(pool, x, 20)
    if one.selected != flat.selected:
        return ["single-class dacs and plain coreset disagree"]
    return []


def _reports_are_byte_identical() -> list:
    data = gen_gaussian_mixture(3, 40, 8, 1.0, 2.2, Rng(5))
    acq = AcquisitionConfig(budget=6, n_buckets=4, n_breaks=2)
    mc = ModelConfig(n_classes=3, reduced_dim=4, epochs=8, batch_size=32)
    runs = []
    for _ in range(2):
        report = run_al(data, "dacs", acq, mc, cycles=2, init_labeled=6, rng=Rng(1)).to_dict()
        del report["timings"]
        runs.append(json.dumps(report, sort_keys=True, indent=2))
    if runs[0].encode() != runs[1].encode():
        return ["repeated runs differ byte-for-byte"]
    return []


def _gradients_match_finite_differences() -> list:
    problems = []
    gen = Rng(2, "grad").generator()
    X = gen.standard_normal((12, 5))
    y = np.array([0, 1, 2] * 4)
    params = init_model(ModelConfig(n_classes=3, reduced_dim=2), 5, Rng(4, "model")).params
    grads = {k: np.empty_like(v) for k, v in params.items()}
    loss_and_grads(params, grads, X, y)
    scratch = {k: np.empty_like(v) for k, v in params.items()}
    for key in params:
        want = _fd_grad(lambda: loss_and_grads(params, scratch, X, y), params, key)
        # relative to max(|fd|, 1e-2) so near-zero entries compare absolutely
        rel = np.max(np.abs(grads[key] - want) / np.maximum(np.abs(want), 1e-2))
        if rel > 1e-5:
            problems.append(f"{key}: relative error {rel:.2e}")
    return problems


def test_criterion_08_invariant_suite():
    problems = (
        _pool_invariants_hold()
        + _h1_equals_coreset()
        + _reports_are_byte_identical()
        + _gradients_match_finite_differences()
    )
    ok = not problems
    assert _verdict(8, "invariant suite", ok), "; ".join(problems)


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_budget_share_spot_check():
    part = DensityPartition(
        clusters=[np.arange(80), np.arange(80, 100)], breaks=np.array([0.5])
    )
    out = allocate_budget(part, 10, 0.25, 100)
    ok = np.allclose(out.ratios, RATIO_80_20, atol=1e-4)
    assert _verdict(9, "budget share spot check", ok), (
        f"ratios {out.ratios} expected {RATIO_80_20} within 1e-4"
    )
