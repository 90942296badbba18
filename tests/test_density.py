import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dacs
import dacs.core
import dacs.density
from dacs.core import DegenerateInputError, FeatureMatrix, Rng, normalize_rows
from dacs.density import (
    DensityConvention,
    LshAssignment,
    _assign_buckets,
    exact_knn_density,
    lsh_assign,
    lsh_density,
    pool_density,
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


def window_density_oracle(x, assignment):
    """Reference: per-sample loop through chunk_window, direct weighted-cosine sum."""
    Z = x.data
    order = assignment.sorted_order
    n = order.size
    out = np.zeros(n)
    for pos in range(n):
        i = order[pos]
        total = 0.0
        for q in chunk_window(assignment, pos):
            if q == pos:
                continue
            j = order[q]
            c_ij = float(Z[i] @ Z[j])
            total += c_ij / (1.0 + np.exp(-c_ij))
        out[i] = total
    return out


def chunk_formula_oracle(x, assignment):
    """Reference: the one-shot per-chunk formula, weighting and summing each
    chunk's whole similarity block with fresh temporaries.

    Chunk 0's window is its own rows, so numpy hands Z[0:e] @ Z[0:e].T to
    BLAS syrk, as lsh_density's whole product of a chunk that stacks. A chunk
    too large to stack is multiplied in row tiles, each a gemm, so there
    chunk 0 meets a copy of its rows, a gemm too.
    """
    Z = x.data[assignment.sorted_order]
    n = Z.shape[0]
    m = assignment.chunk_size
    tiled = m * min(n, 2 * m) > dacs.density._STACK_SCRATCH
    vals_sorted = np.empty(n)
    for c in range(-(-n // m)):
        s, e = c * m, min(n, (c + 1) * m)
        lo = max(0, s - m)
        window = Z[lo:e].copy() if c == 0 and tiled else Z[lo:e]
        sims = Z[s:e] @ window.T
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

    def test_cosine_refuses_a_zero_row_naming_it(self):
        x = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateInputError, match="row 2 has zero norm") as caught:
            exact_knn_density(x, 1, metric="cosine-distance")
        assert caught.value.row == 2

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

    def test_blocking_does_not_change_values(self, monkeypatch):
        gen = Rng(6, "knn").generator()
        X = FeatureMatrix(gen.standard_normal((30, 4)))
        monkeypatch.setattr(dacs.density, "_EXACT_BLOCK", 7)
        a = exact_knn_density(X, 5)
        monkeypatch.setattr(dacs.density, "_EXACT_BLOCK", 1000)
        b = exact_knn_density(X, 5)
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
        buckets = _assign_buckets(FeatureMatrix(z), np.array([[1.0]]))
        assert buckets.tolist() == [0, 1]

    def test_antipodal_rows_never_share_bucket(self):
        gen = Rng(11, "lsh").generator()
        v = normalize_rows(FeatureMatrix(gen.standard_normal((64, 8)))).data
        rotation = gen.standard_normal((8, 5))
        up = _assign_buckets(FeatureMatrix(v), rotation)
        down = _assign_buckets(FeatureMatrix(-v), rotation)
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

    # lsh_assign sorts the ids as uint8, uint16 and uint32 here: 65,536
    # buckets are the most whose ids fit 16 bits, and 65,538 the fewest past
    # them (k is even). The ids are drawn, not hashed, so the top ones occur.
    @pytest.mark.parametrize("k", [100, 65_536, 65_538])
    def test_sorted_order_is_the_stable_argsort_of_the_int64_ids(self, monkeypatch, k):
        gen = Rng(14, "lsh").generator()
        ids = np.concatenate([gen.integers(0, k, 3000), [k - 1, k - 2, 0, k - 1, min(k - 1, 65_535), 1]])
        monkeypatch.setattr(dacs.density, "_assign_buckets", lambda x, rotation: ids.copy())
        x = normalize_rows(FeatureMatrix(gen.standard_normal((ids.size, 2))))
        if ids.size < k:
            with pytest.warns(UserWarning, match="smaller than k"):
                a = lsh_assign(x, k, Rng(0))
        else:
            a = lsh_assign(x, k, Rng(0))
        assert np.array_equal(a.bucket_ids, ids)
        assert np.array_equal(a.sorted_order, np.argsort(ids, kind="stable"))

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
        got = _assign_buckets(FeatureMatrix(z), rotation)
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
        got = _assign_buckets(FeatureMatrix(z), rotation)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_assign_buckets(z, rotation))

    def test_matches_reference_on_a_hashed_pool(self):
        gen = Rng(16, "lsh").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((5000, 16))))
        rotation = gen.standard_normal((16, 50))
        assert np.array_equal(_assign_buckets(x, rotation), reference_assign_buckets(x.data, rotation))


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


# (rows, buckets, chunk size) of the bit-exact pools. 3070 = 8 * 383 + 6:
# each 383-row chunk is multiplied alone over several row tiles, then a
# 6-row remainder chunk. The 100-bucket pools stack their full chunks (14 to
# a stack at 47 rows, all of them at 12 or fewer) and end in a remainder
# chunk, except at chunk size 1, where no pool has one. The rest sit on the
# edges of that layout: two chunks, the second one stacked alone; 14 chunks
# of 47 rows, whose last 13 fill less than a stack; 16 such chunks, a full
# stack of 14 and then one chunk alone, with no remainder and with a one-row
# remainder; two 383-row chunks and no remainder; two 200-row chunks, chunk
# 0 in tiles although its own product would fit whole, the last tile of each
# 8 rows, and a one-row remainder.
CHUNK_POOLS = [
    (3070, 8, 383),
    (150, 100, 1),
    (201, 100, 2),
    (1207, 100, 12),
    (4731, 100, 47),
    (30, 2, 15),
    (658, 14, 47),
    (752, 16, 47),
    (753, 16, 47),
    (766, 2, 383),
    (401, 2, 200),
]


def chunk_pool(rows, buckets):
    """A unit-norm 16-D pool of `rows` rows and its assignment to `buckets` buckets."""
    gen = Rng(24, "dens").generator()
    x = normalize_rows(FeatureMatrix(gen.standard_normal((rows, 16))))
    return x, lsh_assign(x, buckets, Rng(6))


SRC_DIR = os.path.dirname(os.path.dirname(dacs.__file__))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
# Run with BLAS on one thread: the density of the three pools of tiled chunks
# on 1, 2, 3 and 16 threads, and a hash over three projection blocks, each
# against its oracle, bit for bit. Prints one "ok" per check.
ONE_BLAS_THREAD_CHECK = """
import numpy as np
import dacs.core
import dacs.density
from dacs.core import DegenerateInputError, FeatureMatrix, Rng, normalize_rows
from test_density import chunk_formula_oracle, chunk_pool, reference_assign_buckets

assert dacs.core._blas_single_threaded()
dacs.core._PARALLEL_MIN_WORK = 0
for rows, buckets, chunk in ((3070, 8, 383), (766, 2, 383), (401, 2, 200)):
    x, a = chunk_pool(rows, buckets)
    assert a.chunk_size == chunk
    expect = chunk_formula_oracle(x, a)
    for workers in (1, 2, 3, 16):
        dacs.core._worker_count = lambda: workers
        got = dacs.density.lsh_density(x, a).values
        assert np.array_equal(got, expect), (rows, workers)
        print("ok")
gen = Rng(16, "lsh").generator()
x = normalize_rows(FeatureMatrix(gen.standard_normal((10_000, 16))))
rotation = gen.standard_normal((16, 50))
assert x.n > 2 * dacs.density._HASH_BLOCK
assert np.array_equal(dacs.density._assign_buckets(x, rotation), reference_assign_buckets(x.data, rotation))
print("ok")
"""


def assert_matches_chunk_formula(got, x, a):
    """lsh_density's values against chunk_formula_oracle, bit for bit.

    Except for chunks too large to stack under a threaded BLAS: their row
    tiles and the oracle's whole product are split over BLAS's threads by
    their shapes, and on two OpenBLAS threads 37 of the 3,070 values and 12
    of the 766 sat up to 2 ulps apart (all 401 matched).
    ONE_BLAS_THREAD_CHECK checks those pools bit for bit with BLAS on one
    thread.
    """
    expect = chunk_formula_oracle(x, a)
    m = a.chunk_size
    if dacs.core._blas_single_threaded() or m * 2 * m <= dacs.density._STACK_SCRATCH:
        assert np.array_equal(got, expect)
    else:
        np.testing.assert_array_max_ulp(got, expect, maxulp=2)


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
        assert prof.values.tolist() == [0.0]

    def test_chunk_size_one_looks_back_one_row(self):
        # chunk 0 has no chunk before it, so its one row scores nothing; the
        # next row's window holds it
        x = FeatureMatrix(np.array([[1.0, 0.0], [0.6, 0.8], [-0.6, 0.8]]), unit_norm=True)
        prof = lsh_density(x, make_assignment(3, 1))
        assert np.allclose(prof.values, [0.0, 0.6 / (1 + np.exp(-0.6)), 0.28 / (1 + np.exp(-0.28))])

    # (rows, dims, buckets): a 1-row remainder chunk after 7-row chunks, no
    # remainder, chunk size 1, two chunks, and 4-row chunks with a 1-row
    # remainder.
    @pytest.mark.parametrize("rows, dims, buckets", [(57, 5, 8), (64, 4, 8), (33, 3, 32), (20, 6, 2), (9, 3, 2)])
    def test_matches_per_sample_oracle(self, rows, dims, buckets):
        gen = Rng(20, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((rows, dims))))
        a = lsh_assign(x, buckets, Rng(2))
        got = lsh_density(x, a)
        expect = window_density_oracle(x, a)
        assert np.allclose(got.values, expect, atol=1e-10)

    @pytest.mark.parametrize("rows, buckets, chunk", CHUNK_POOLS)
    def test_bit_identical_to_one_shot_chunk_formula(self, rows, buckets, chunk):
        x, a = chunk_pool(rows, buckets)
        assert a.chunk_size == chunk
        # every pool but those of chunks taken in tiles stacks at least two chunks
        assert (dacs.density._STACK_SCRATCH // (2 * chunk * chunk) >= 2) == (chunk < 200)
        assert_matches_chunk_formula(lsh_density(x, a).values, x, a)

    # The same pools split across threads: 2 and 3 threads get uneven runs
    # (which split stacks), 16 threads more threads than 383-row chunks.
    @pytest.mark.parametrize("rows, buckets, chunk", CHUNK_POOLS)
    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    def test_bit_identical_on_any_number_of_threads(self, monkeypatch, workers, rows, buckets, chunk):
        monkeypatch.setattr(dacs.core, "_PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)
        x, a = chunk_pool(rows, buckets)
        assert_matches_chunk_formula(lsh_density(x, a).values, x, a)

    def test_tiled_paths_are_bit_identical_under_one_blas_thread(self):
        # lsh_density multiplies large chunks in row tiles, and _assign_buckets
        # projects in blocks, whose bits equal the whole product's with BLAS
        # on one thread, which OpenBLAS reads when it loads: a fresh
        # interpreter with it set checks both whatever BLAS this process has.
        # The 383-row chunks are multiplied in 8 tiles each, the 200-row ones
        # in 5, chunk 0 included; 40- or 64-row tiles move values there.
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([SRC_DIR, TESTS_DIR]),
        }
        result = subprocess.run(
            [sys.executable, "-c", ONE_BLAS_THREAD_CHECK],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["ok"] * 13

    def test_magnitude_bounded_by_window_size(self):
        gen = Rng(21, "dens").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((64, 4))))
        a = lsh_assign(x, 8, Rng(3))
        prof = lsh_density(x, a)
        # the largest window spans two chunks
        assert np.all(np.abs(prof.values) <= 2 * a.chunk_size - 1)

    @pytest.mark.parametrize("window", ["own-chunk-only", "sliding", "With-Previous"])
    def test_other_window_rules_are_refused(self, window):
        x = FeatureMatrix(np.eye(2), unit_norm=True)
        with pytest.raises(ValueError, match=f"unknown window rule '{window}'"):
            lsh_density(x, make_assignment(2, 1), window=window)

    def test_the_one_window_rule_named_is_the_default(self):
        x, a = chunk_pool(201, 100)
        named = lsh_density(x, a, window="with-previous")
        assert named.values.tobytes() == lsh_density(x, a).values.tobytes()
        assert "window" not in named.params

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

    # An order that repeats row 0 leaves row 7 out, and lsh_density would
    # never write row 7's value; so would an order with a row out of range.
    @pytest.mark.parametrize(
        "order", [[0, 0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7, 8], [-1, 0, 1, 2, 3, 4, 5, 6], [0, 1]]
    )
    def test_an_order_that_is_no_permutation_is_refused(self, order):
        with pytest.raises(ValueError, match="permutation"):
            LshAssignment(
                bucket_ids=np.zeros(8, np.int64), sorted_order=order, chunk_size=2,
                n_buckets=2, rotation_seed=0,
            )


class TestSignedZeros:
    """lsh_density multiplies negated rows, so its row sums hold -S; the
    value is written as 0.0 - (-S), which keeps S's bits and makes a zero
    +0.0, as the unnegated sum of a row of zeros with its +0.0 self term is.
    """

    # 16 rows that stack (2 and 4 buckets; chunk 0's product goes to syrk)
    # or look back one row (16 buckets), and 400 rows of 200-row chunks
    # multiplied in tiles.
    @pytest.mark.parametrize("rows, buckets", [(16, 2), (16, 4), (16, 16), (400, 2)])
    def test_orthogonal_rows_have_positive_zero_density(self, rows, buckets):
        x = FeatureMatrix(np.eye(rows), unit_norm=True)
        values = pool_density(x, np.arange(rows), buckets, Rng(0)).values
        assert np.array_equal(values, np.zeros(rows))
        assert not np.signbit(values).any()

    # Every nonzero point of {-1, 0, 1}^4, normalized: cosines of exactly
    # zero, of both signs and of 1; with one row per chunk, 8 rows have a
    # density of exactly zero.
    @pytest.mark.parametrize("buckets", [2, 8, 16, 80])
    def test_lattice_pool_matches_the_chunk_formula_bit_for_bit(self, buckets):
        points = [p for p in itertools.product([-1.0, 0.0, 1.0], repeat=4) if any(p)]
        x = normalize_rows(FeatureMatrix(np.array(points)))
        a = lsh_assign(x, buckets, Rng(5))
        got = lsh_density(x, a).values
        assert got.tobytes() == chunk_formula_oracle(x, a).tobytes()
        assert (got == 0.0).sum() == (8 if buckets == 80 else 0)


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


class TestPoolDensity:
    def test_equals_lsh_density_of_the_rows_in_index_order(self):
        gen = Rng(40, "pool").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((80, 5))))
        idx = np.flatnonzero(gen.random(80) < 0.6)
        got = pool_density(x, idx, 6, Rng(41, "pd"))
        sub = FeatureMatrix(x.data[idx], unit_norm=True)  # a copy, not a view
        want = lsh_density(sub, lsh_assign(sub, 6, Rng(41, "pd")))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.params == want.params
        assert got.convention is want.convention

    # (pool rows, indexed rows, buckets): 12-row chunks that stack; 383-row
    # chunks too large to stack, multiplied in tiles; 9,000 rows hashed over
    # three hash blocks; every row of the pool, reordered; a few rows of a
    # larger pool. Each on one thread and in two, three and sixteen forced
    # parts: uneven runs that split stacks, and more threads than the
    # 383-row chunks.
    @pytest.mark.parametrize(
        "pool_rows, rows, buckets, chunk",
        [
            (2000, 1207, 100, 12),
            (4000, 3070, 8, 383),
            (12_000, 9000, 100, 90),
            (1000, 1000, 100, 10),
            (5000, 250, 10, 25),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    def test_bit_identical_to_the_copied_rows(self, monkeypatch, workers, pool_rows, rows, buckets, chunk):
        monkeypatch.setattr(dacs.core, "_PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)
        gen = Rng(42, "pool").generator()
        x = normalize_rows(FeatureMatrix(gen.standard_normal((pool_rows, 16))))
        idx = gen.permutation(pool_rows)[:rows]  # unsorted, with gaps
        sub = FeatureMatrix(x.data[idx], unit_norm=True)  # a copy, not a view
        a = lsh_assign(sub, buckets, Rng(43, "pd"))
        assert a.chunk_size == chunk
        assert (dacs.density._STACK_SCRATCH // (2 * chunk * chunk) >= 2) == (chunk < 383)
        assert (rows > 2 * dacs.density._HASH_BLOCK) == (rows == 9000)
        want = lsh_density(sub, a)
        got = pool_density(x, idx, buckets, Rng(43, "pd"))
        assert got.values.tobytes() == want.values.tobytes()
