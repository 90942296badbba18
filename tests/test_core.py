import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacs.core import (
    IDEMPOTENCE_TOL,
    UNIT_NORM_TOL,
    AcquisitionConfig,
    DegenerateInputError,
    FeatureMatrix,
    PoolState,
    Rng,
    commit_acquisition,
    make_pool,
    normalize_rows,
)


class TestRng:
    def test_same_seed_same_stream_identical(self):
        a = Rng(42, "rotation").generator().standard_normal(100)
        b = Rng(42, "rotation").generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, "rotation").generator().standard_normal(100)
        b = Rng(42, "init").generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = Rng(0, "data").generator().standard_normal(10)
        b = Rng(1, "data").generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_derive_composes_names(self):
        rng = Rng(7, "cycle-2").derive("rotation")
        assert rng.stream == "cycle-2/rotation"
        assert rng.seed == 7

    def test_derive_from_root(self):
        assert Rng(7).derive("init").stream == "init"

    def test_derive_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Rng(7).derive("")

    def test_generator_replays_from_start(self):
        rng = Rng(3, "batch")
        first = rng.generator().integers(0, 1000, 20)
        second = rng.generator().integers(0, 1000, 20)
        assert np.array_equal(first, second)


class TestFeatureMatrix:
    def test_basic_shape(self):
        x = FeatureMatrix(np.ones((3, 2)))
        assert x.n == 3 and x.d == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.empty((0, 3)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(np.ones(4))

    def test_unit_norm_flag_validated(self):
        with pytest.raises(ValueError, match="row 1"):
            FeatureMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]), unit_norm=True)

    def test_data_is_read_only(self):
        x = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0

    def test_rows_subset(self):
        x = FeatureMatrix(np.arange(12.0).reshape(4, 3))
        sub = x.rows([2, 0])
        assert np.array_equal(sub.data, [[6, 7, 8], [0, 1, 2]])

    def test_rows_out_of_range(self):
        x = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            x.rows([2])


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(FeatureMatrix(np.array([[3.0, 4.0]])))
        assert np.allclose(out.data, [[0.6, 0.8]])
        assert out.unit_norm

    def test_unit_norms_within_tolerance(self):
        gen = Rng(0, "t").generator()
        out = normalize_rows(FeatureMatrix(gen.standard_normal((50, 7))))
        assert np.all(np.abs(np.linalg.norm(out.data, axis=1) - 1.0) <= UNIT_NORM_TOL)

    def test_idempotent(self):
        gen = Rng(1, "t").generator()
        once = normalize_rows(FeatureMatrix(gen.standard_normal((20, 5))))
        twice = normalize_rows(once)
        assert np.max(np.abs(twice.data - once.data)) <= IDEMPOTENCE_TOL

    def test_zero_row_names_index(self):
        x = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(DegenerateInputError, match="row 1") as exc_info:
            normalize_rows(x)
        assert exc_info.value.row == 1


class TestPool:
    def test_make_pool_example(self):
        pool = make_pool(10, [1, 2])
        assert np.array_equal(pool.labeled, [1, 2])
        assert pool.unlabeled.size == 8
        assert pool.cycle == 0

    def test_commit_example(self):
        pool = make_pool(10, [1, 2])
        after = commit_acquisition(pool, [3])
        assert np.array_equal(after.labeled, [1, 2, 3])
        assert after.cycle == 1
        assert 3 not in after.unlabeled

    def test_commit_labeled_index_rejected(self):
        pool = make_pool(10, [1, 2])
        with pytest.raises(ValueError, match="not in the unlabeled pool"):
            commit_acquisition(pool, [2])

    def test_commit_duplicate_rejected(self):
        pool = make_pool(10, [1])
        with pytest.raises(ValueError, match="duplicates"):
            commit_acquisition(pool, [3, 3])

    def test_commit_empty_rejected(self):
        pool = make_pool(10, [1])
        with pytest.raises(ValueError, match="empty"):
            commit_acquisition(pool, [])

    def test_make_pool_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            make_pool(5, [0, 0])

    def test_make_pool_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            make_pool(5, [5])

    def test_empty_initial_labels(self):
        pool = make_pool(4, [])
        assert pool.labeled.size == 0
        assert np.array_equal(pool.unlabeled, [0, 1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_partition_invariant_through_commits(self, data):
        n = data.draw(st.integers(3, 40))
        init = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n - 2)
        )
        pool = make_pool(n, init)
        for _ in range(data.draw(st.integers(0, 3))):
            if pool.unlabeled.size == 0:
                break
            k = data.draw(st.integers(1, pool.unlabeled.size))
            picks = data.draw(
                st.lists(
                    st.sampled_from(list(pool.unlabeled)),
                    unique=True,
                    min_size=1,
                    max_size=k,
                )
            )
            before_cycle = pool.cycle
            pool = commit_acquisition(pool, picks)
            assert pool.cycle == before_cycle + 1
        # labeled and unlabeled always partition range(n)
        assert np.intersect1d(pool.labeled, pool.unlabeled).size == 0
        union = np.union1d(pool.labeled, pool.unlabeled)
        assert np.array_equal(union, np.arange(n))


class TestAcquisitionConfig:
    def test_defaults(self):
        cfg = AcquisitionConfig(budget=5)
        assert cfg.n_buckets == 100
        assert cfg.n_breaks == 4
        assert cfg.temperature == 0.25
        assert cfg.expand_factor == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget=0),
            dict(budget=5, n_buckets=7),
            dict(budget=5, n_buckets=0),
            dict(budget=5, n_breaks=0),
            dict(budget=5, temperature=0.0),
            dict(budget=5, expand_factor=0.5),
            dict(budget=5, window="sideways"),
            dict(budget=5, reference="nowhere"),
            dict(budget=5, temperature=float("nan")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AcquisitionConfig(**kwargs)
