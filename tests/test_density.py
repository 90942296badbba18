import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dacs.core import FeatureMatrix, Rng, normalize_rows
from dacs.density import (
    DensityConvention,
    LshAssignment,
    _assign_buckets,
    exact_knn_density,
    lsh_assign,
    lsh_density,
)

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


def brute_knn_density(X, k_nn, metric):
    """Reference: plain per-pair loops, no blocking, no partition tricks."""
    n = X.shape[0]
    out = np.empty(n)
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            if metric == "euclidean":
                dists.append(float(np.sqrt(((X[i] - X[j]) ** 2).sum())))
            else:
                a = X[i] / np.linalg.norm(X[i])
                b = X[j] / np.linalg.norm(X[j])
                dists.append(float(1.0 - a @ b))
        dists.sort()
        out[i] = float(np.mean(dists[:k_nn]))
    return out


def chunk_window(assignment, position):
    """Reference: sorted positions in the sample's own chunk plus the
    immediately preceding chunk.

    Position arithmetic is pure floor division by chunk_size: the window of
    position i is every j with floor(i/m)-1 <= floor(j/m) <= floor(i/m). The
    first chunk has no predecessor and a trailing remainder forms its own
    (smaller) chunk.
    """
    n = assignment.sorted_order.size
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for n={n}")
    m = assignment.chunk_size
    c = position // m
    lo = max(0, (c - 1) * m)
    hi = min(n, (c + 1) * m)
    return np.arange(lo, hi, dtype=np.int64)


def reference_assign_buckets(z, rotation):
    """Reference: argmax over the concatenated [R^T z; -R^T z] responses,
    with the concatenation built."""
    proj = z @ rotation
    scores = np.concatenate([proj, -proj], axis=1)
    return np.argmax(scores, axis=1).astype(np.int64)


def window_density_oracle(x, assignment, window="with-previous"):
    """Reference: per-sample loop through chunk_window, direct weighted-cosine sum."""
    Z = x.data
    order = assignment.sorted_order
    n = order.size
    out = np.zeros(n)
    for pos in range(n):
        i = order[pos]
        if window == "with-previous":
            win = chunk_window(assignment, pos)
        else:
            m = assignment.chunk_size
            c = pos // m
            win = np.arange(c * m, min(n, (c + 1) * m))
        total = 0.0
        for q in win:
            if q == pos:
                continue
            j = order[q]
            c_ij = float(Z[i] @ Z[j])
            total += c_ij / (1.0 + np.exp(-c_ij))
        out[i] = total
    return out


def chunk_formula_oracle(x, assignment, window="with-previous"):
    """Reference: the one-shot per-chunk formula, weighting and summing each
    chunk's whole similarity block with fresh temporaries."""
    Z = x.data[assignment.sorted_order]
    n = Z.shape[0]
    m = assignment.chunk_size
    vals_sorted = np.empty(n)
    for c in range(-(-n // m)):
        s, e = c * m, min(n, (c + 1) * m)
        lo = s if (window == "own-chunk-only" or c == 0) else (c - 1) * m
        sims = Z[s:e] @ Z[lo:e].T
        rows = np.arange(e - s)
        sims[rows, rows + (s - lo)] = 0.0
        vals_sorted[s:e] = (1.0 / (1.0 + np.exp(-sims)) * sims).sum(axis=1)
    out = np.empty(n)
    out[assignment.sorted_order] = vals_sorted
    return out


class TestExactKnn:
    def test_collinear_example(self):
        x = FeatureMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
        prof = exact_knn_density(x, 1)
        assert np.allclose(prof.values, [1.0, 1.0, 9.0])
        assert prof.convention is DensityConvention.DISTANCE_BASED

    def test_coincident_rows_zero_distance(self):
        x = FeatureMatrix(np.array([[2.0, 2.0], [2.0, 2.0], [5.0, 5.0]]))
        prof = exact_knn_density(x, 1)
        assert prof.values[0] == 0.0 and prof.values[1] == 0.0

    def test_k_too_large_rejected(self):
        x = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match="k_nn"):
            exact_knn_density(x, 3)

    def test_unknown_metric_rejected(self):
        x = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match="metric"):
            exact_knn_density(x, 1, metric="manhattan")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine-distance"])
    def test_matches_brute_force(self, metric):
        gen = Rng(5, "knn").generator()
        X = gen.standard_normal((40, 6))
        expect = brute_knn_density(X, 7, metric)
        got = exact_knn_density(FeatureMatrix(X), 7, metric=metric)
        assert np.allclose(got.values, expect, atol=1e-10)

    def test_blocking_does_not_change_values(self):
        gen = Rng(6, "knn").generator()
        X = FeatureMatrix(gen.standard_normal((30, 4)))
        a = exact_knn_density(X, 5, block=7)
        b = exact_knn_density(X, 5, block=1000)
        # block shape only affects floating-point association, nothing more
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_permutation_equivariance(self):
        gen = Rng(7, "knn").generator()
        X = gen.standard_normal((25, 3))
        perm = gen.permutation(25)
        base = exact_knn_density(FeatureMatrix(X), 4).values
        permuted = exact_knn_density(FeatureMatrix(X[perm]), 4).values
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_values_non_negative(self):
        gen = Rng(8, "knn").generator()
        prof = exact_knn_density(FeatureMatrix(gen.standard_normal((20, 5))), 3)
        assert np.all(prof.values >= 0.0)


class TestLshAssign:
    def test_one_dim_two_buckets(self):
        # With rotation [[1]], +1 responds strongest on the positive column,
        # -1 on the negated copy.
        z = np.array([[1.0], [-1.0]])
        buckets = _assign_buckets(z, np.array([[1.0]]))
        assert buckets.tolist() == [0, 1]

    def test_antipodal_rows_never_share_bucket(self):
        gen = Rng(11, "lsh").generator()
        v = normalize_rows(FeatureMatrix(gen.standard_normal((64, 8)))).data
        rotation = gen.standard_normal((8, 5))
        up = _assign_buckets(v, rotation)
        down = _assign_buckets(-v, rotation)
        assert np.all(up != down)

    def test_identical_rows_share_bucket_and_stay_adjacent(self):
        row = np.array([0.6, 0.8])
        x = FeatureMatrix(np.array([row, [1.0, 0.0], row]), unit_norm=True)
        with pytest.warns(UserWarning, match="smaller than k=4"):
            a = lsh_assign(x, 4, Rng(3))
        assert a.bucket_ids[0] == a.bucket_ids[2]
        order = a.sorted_order.tolist()
        assert abs(order.index(0) - order.index(2)) == 1

    def test_sorted_order_stable_by_bucket_then_index(self):
        gen = Rng(12, "lsh").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((120, 6))))
        a = lsh_assign(x, 8, Rng(0))
        keys = list(zip(a.bucket_ids[a.sorted_order], a.sorted_order))
        assert keys == sorted(keys)

    def test_bucket_range_and_chunk_size(self):
        gen = Rng(13, "lsh").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((250, 5))))
        a = lsh_assign(x, 10, Rng(1))
        assert a.bucket_ids.min() >= 0 and a.bucket_ids.max() < 10
        assert a.chunk_size == 25

    def test_chunk_size_floors_at_one(self):
        x = normalize_rows(FeatureMatrix(np.eye(3)))
        with pytest.warns(UserWarning, match=r"n=3 .*k=8 "):
            a = lsh_assign(x, 8, Rng(0))
        assert a.chunk_size == 1

    def test_pool_of_at_least_k_rows_does_not_warn(self):
        x = normalize_rows(FeatureMatrix(np.eye(8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = lsh_assign(x, 8, Rng(0))
        assert a.chunk_size == 1

    def test_odd_bucket_count_rejected(self):
        x = normalize_rows(FeatureMatrix(np.eye(4)))
        with pytest.raises(ValueError, match="even"):
            lsh_assign(x, 5, Rng(0))

    def test_non_unit_norm_rejected(self):
        x = FeatureMatrix(np.eye(4) * 2.0)
        with pytest.raises(ValueError, match="unit-norm"):
            lsh_assign(x, 4, Rng(0))

    def test_same_seed_same_assignment(self):
        gen = Rng(14, "lsh").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((80, 4))))
        a = lsh_assign(x, 6, Rng(9))
        b = lsh_assign(x, 6, Rng(9))
        assert np.array_equal(a.bucket_ids, b.bucket_ids)
        assert a.rotation_seed == b.rotation_seed

    def test_different_seed_different_rotation(self):
        gen = Rng(15, "lsh").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((200, 8))))
        a = lsh_assign(x, 6, Rng(0))
        b = lsh_assign(x, 6, Rng(1))
        assert a.rotation_seed != b.rotation_seed
        assert not np.array_equal(a.bucket_ids, b.bucket_ids)


# Projection entries: a {-1, 0, 1} lattice with both zeros makes max == -min
# ties, all-zero rows and -0.0 responses common.
LATTICE = st.sampled_from([-1.0, -0.0, 0.0, 1.0])


class TestAssignBucketsMatchesConcatenation:
    """_assign_buckets against the argmax over the built concatenation."""

    @pytest.mark.parametrize(
        "proj_row",
        [
            [1.0, -1.0],  # max == -min: first half wins
            [-1.0, 1.0],
            [0.5, -0.5, 0.25],
            [0.0, 0.0],
            [-0.0, 0.0],
            [-0.0, -0.0],
            [-2.0, 1.0, 2.0],
        ],
    )
    def test_ties_go_to_the_first_half(self, proj_row):
        # rotation = identity, so the projection is the row itself
        z = np.array([proj_row])
        rotation = np.eye(len(proj_row))
        got = _assign_buckets(z, rotation)
        assert np.array_equal(got, reference_assign_buckets(z, rotation))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        half = data.draw(st.integers(1, 6), label="k/2")
        kind = data.draw(st.sampled_from(["random", "lattice", "zero"]), label="kind")
        if kind == "random":
            elements = st.floats(-4.0, 4.0, allow_nan=False)
            z = data.draw(arrays(np.float64, (n, d), elements=elements), label="z")
            rotation = data.draw(arrays(np.float64, (d, half), elements=elements), label="rotation")
        else:
            rotation = data.draw(arrays(np.float64, (d, half), elements=LATTICE), label="rotation")
            if kind == "lattice":
                z = data.draw(arrays(np.float64, (n, d), elements=LATTICE), label="z")
            else:
                z = np.zeros((n, d))
        got = _assign_buckets(z, rotation)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_assign_buckets(z, rotation))

    def test_matches_reference_on_a_hashed_pool(self):
        gen = Rng(16, "lsh").generator()
        z = normalize_rows(FeatureMatrix(gen.standard_normal((5000, 16)))).data
        rotation = gen.standard_normal((16, 50))
        assert np.array_equal(_assign_buckets(z, rotation), reference_assign_buckets(z, rotation))


def make_assignment(n, m, bucket_ids=None):
    """Assignment with a hand-picked chunk size; identity sort order by default."""
    if bucket_ids is None:
        bucket_ids = np.zeros(n, dtype=np.int64)
    order = np.argsort(bucket_ids, kind="stable")
    return LshAssignment(
        bucket_ids=bucket_ids, sorted_order=order, chunk_size=m, n_buckets=2, rotation_seed=0
    )


class TestChunkWindow:
    def test_first_chunk_own_only(self):
        a = make_assignment(6, 2)
        assert chunk_window(a, 0).tolist() == [0, 1]

    def test_second_chunk_includes_previous(self):
        a = make_assignment(6, 2)
        assert chunk_window(a, 3).tolist() == [0, 1, 2, 3]

    def test_remainder_chunk_window(self):
        a = make_assignment(7, 2)
        assert chunk_window(a, 6).tolist() == [4, 5, 6]

    def test_position_out_of_range(self):
        a = make_assignment(6, 2)
        with pytest.raises(ValueError, match="out of range"):
            chunk_window(a, 6)

    def test_windows_cover_at_most_two_chunks(self):
        a = make_assignment(23, 4)
        for pos in range(23):
            win = chunk_window(a, pos)
            chunks = {int(q) // 4 for q in win}
            assert len(chunks) <= 2
            assert pos in win


class TestLshDensity:
    def test_two_identical_vectors_in_one_window(self):
        x = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), unit_norm=True)
        a = make_assignment(2, 2)
        prof = lsh_density(x, a)
        assert np.allclose(prof.values, [SIGMOID_1, SIGMOID_1])
        assert prof.convention is DensityConvention.SIMILARITY_BASED

    def test_orthogonal_vectors_zero_mass(self):
        x = FeatureMatrix(np.eye(2), unit_norm=True)
        a = make_assignment(2, 2)
        prof = lsh_density(x, a)
        assert np.allclose(prof.values, [0.0, 0.0])

    def test_single_sample_degenerate(self):
        x = FeatureMatrix(np.array([[1.0, 0.0]]), unit_norm=True)
        a = make_assignment(1, 1)
        with pytest.warns(UserWarning, match="degenerate"):
            prof = lsh_density(x, a)
        assert prof.degenerate
        assert prof.values.tolist() == [0.0]

    def test_window_of_one_gives_zero(self):
        # chunk size 1, own-chunk-only: every window is just the sample itself
        x = FeatureMatrix(np.array([[1.0, 0.0], [0.6, 0.8]]), unit_norm=True)
        a = make_assignment(2, 1)
        prof = lsh_density(x, a, window="own-chunk-only")
        assert np.allclose(prof.values, [0.0, 0.0])

    @pytest.mark.parametrize("window", ["with-previous", "own-chunk-only"])
    def test_matches_per_sample_oracle(self, window):
        gen = Rng(20, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((57, 5))))
        a = lsh_assign(x, 8, Rng(2))
        got = lsh_density(x, a, window=window)
        expect = window_density_oracle(x, a, window=window)
        assert np.allclose(got.values, expect, atol=1e-10)

    @pytest.mark.parametrize("window", ["with-previous", "own-chunk-only"])
    def test_bit_identical_to_one_shot_chunk_formula(self, window):
        # chunk size 383 spans several row tiles and ends in a partial one;
        # 3070 = 8 * 383 + 6 leaves a 6-row remainder chunk
        gen = Rng(24, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((3070, 16))))
        a = lsh_assign(x, 8, Rng(6))
        assert a.chunk_size == 383
        got = lsh_density(x, a, window=window)
        assert np.array_equal(got.values, chunk_formula_oracle(x, a, window=window))

    def test_magnitude_bounded_by_window_size(self):
        gen = Rng(21, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((64, 4))))
        a = lsh_assign(x, 8, Rng(3))
        prof = lsh_density(x, a)
        # the largest window spans two chunks
        assert np.all(np.abs(prof.values) <= 2 * a.chunk_size - 1)

    def test_own_chunk_only_differs(self):
        gen = Rng(22, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((60, 5))))
        a = lsh_assign(x, 6, Rng(4))
        wide = lsh_density(x, a)
        narrow = lsh_density(x, a, window="own-chunk-only")
        assert not np.allclose(wide.values, narrow.values)

    def test_deterministic_given_seed(self):
        gen = Rng(23, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((90, 6))))
        p1 = lsh_density(x, lsh_assign(x, 10, Rng(5)))
        p2 = lsh_density(x, lsh_assign(x, 10, Rng(5)))
        assert np.array_equal(p1.values, p2.values)

    def test_non_unit_norm_rejected(self):
        x = FeatureMatrix(np.eye(3) * 3.0)
        a = make_assignment(3, 1)
        with pytest.raises(ValueError, match="unit-norm"):
            lsh_density(x, a)


class TestRankAgreement:
    def test_fast_density_tracks_exact_on_clustered_data(self):
        # small-scale version of the fidelity check: clustered points should
        # rank similarly under the fast path and the negated exact distances
        from scipy.stats import spearmanr

        rng = Rng(30, "fidelity")
        gen = rng.generator()
        centers = gen.standard_normal((4, 8)) * 3.0
        X = np.vstack([centers[i] + gen.standard_normal((100, 8)) for i in range(4)])
        x = normalize_rows(FeatureMatrix(X))
        a = lsh_assign(x, 20, Rng(31))
        fast = lsh_density(x, a)
        exact = exact_knn_density(x, 20, metric="cosine-distance")
        rho = spearmanr(fast.values, -exact.values).statistic
        # desk-scale sanity only; the full-scale fidelity bound lives in the
        # acceptance suite
        assert rho >= 0.3
