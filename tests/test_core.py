import os
import pickle
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacs.core
from dacs.core import (
    IDEMPOTENCE_TOL,
    UNIT_NORM_TOL,
    AcquisitionConfig,
    DegenerateInputError,
    DivergenceError,
    FeatureMatrix,
    PoolState,
    Rng,
    RowView,
    UndefinedCorrelationError,
    _parallel_ranges,
    _worker_count,
    commit_acquisition,
    make_pool,
    normalize_rows,
)
from dacs.density import DensityConvention, DensityProfile
from dacs.selection import UncertaintyScores


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


class TestReadOnlyFields:
    """Wrappers freeze a view of the caller's array, never the array itself."""

    @staticmethod
    def assert_frozen_view(field, caller):
        assert not field.flags.writeable
        assert np.shares_memory(field, caller)  # a view, not a copy
        assert caller.flags.writeable
        caller[0] = caller[0]
        with pytest.raises(ValueError):
            field[0] = field[0]

    def test_feature_matrix(self):
        a = np.ones((3, 2))
        self.assert_frozen_view(FeatureMatrix(a).data, a)

    def test_pool_state(self):
        lab, unlab = np.array([0, 2]), np.array([1, 3])
        pool = PoolState(n_total=4, labeled=lab, unlabeled=unlab)
        self.assert_frozen_view(pool.labeled, lab)
        self.assert_frozen_view(pool.unlabeled, unlab)

    def test_uncertainty_scores(self):
        a = np.ones(4)
        self.assert_frozen_view(UncertaintyScores(scores=a).scores, a)

    def test_density_profile(self):
        idx, vals = np.arange(4), np.linspace(0.0, 1.0, 4)
        profile = DensityProfile(
            indices=idx, values=vals, convention=DensityConvention.SIMILARITY_BASED, params={}
        )
        self.assert_frozen_view(profile.indices, idx)
        self.assert_frozen_view(profile.values, vals)

    def test_non_contiguous_input_is_copied_once(self):
        a = np.ones((4, 3))[:, ::2]
        x = FeatureMatrix(a)
        assert x.data.flags.c_contiguous and not x.data.flags.writeable
        assert not np.shares_memory(x.data, a)


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

    def test_commit_example(self):
        pool = make_pool(10, [1, 2])
        after = commit_acquisition(pool, [3])
        assert np.array_equal(after.labeled, [1, 2, 3])
        assert 3 not in after.unlabeled

    def test_commit_labeled_index_rejected(self):
        pool = make_pool(10, [1, 2])
        with pytest.raises(ValueError, match="not in the unlabeled pool"):
            commit_acquisition(pool, [2])

    @pytest.mark.parametrize("index", [-1, -10, 10, 11])
    def test_commit_index_outside_the_pool_rejected(self, index):
        # a negative index must not wrap around to the end of the pool
        pool = make_pool(10, [1, 2])
        with pytest.raises(ValueError, match=f"index {index} is not in the unlabeled pool"):
            commit_acquisition(pool, [3, index, 2])

    def test_commit_names_the_first_bad_index_in_selection_order(self):
        pool = make_pool(10, [1, 2])
        with pytest.raises(ValueError, match="index 12 is not in the unlabeled pool"):
            commit_acquisition(pool, [3, 12, 2, -1])
        with pytest.raises(ValueError, match="duplicates"):
            commit_acquisition(pool, [3, -1, -1])

    def test_commit_matches_sorted_set_operations(self):
        gen = Rng(0, "pool").generator()
        pool = make_pool(50, gen.choice(50, 7, replace=False))
        assert np.array_equal(pool.unlabeled, np.setdiff1d(np.arange(50), pool.labeled))
        for _ in range(4):
            sel = gen.choice(pool.unlabeled, 5, replace=False)
            after = commit_acquisition(pool, sel)
            assert np.array_equal(after.labeled, np.union1d(pool.labeled, sel))
            assert np.array_equal(after.unlabeled, np.setdiff1d(pool.unlabeled, sel))
            assert after.labeled.dtype == after.unlabeled.dtype == np.int64
            pool = after

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
            pool = commit_acquisition(pool, picks)
        # labeled and unlabeled always partition range(n)
        assert np.intersect1d(pool.labeled, pool.unlabeled).size == 0
        union = np.union1d(pool.labeled, pool.unlabeled)
        assert np.array_equal(union, np.arange(n))


class TestRowView:
    x = FeatureMatrix(np.arange(12.0).reshape(6, 2))

    def test_a_view_refuses_rows_outside_its_matrix(self):
        with pytest.raises(ValueError, match="out of range"):
            RowView(self.x, [0, 6])

    @pytest.mark.parametrize("out", [None, np.empty((2, 2))], ids=["new", "into-out"])
    def test_take_refuses_a_position_outside_the_view(self, out):
        # The gather itself cannot clip: the position fails on the view's indices.
        with pytest.raises(IndexError):
            RowView(self.x, [1, 3, 5]).take(np.array([0, 3]), out=out)


class TestAcquisitionConfig:
    def test_defaults(self):
        cfg = AcquisitionConfig(budget=5)
        assert cfg.n_buckets == 100
        assert cfg.n_breaks == 4
        assert cfg.temperature == 0.25
        assert [f.name for f in fields(cfg)] == ["budget", "n_buckets", "n_breaks", "temperature"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget=0),
            dict(budget=5, n_buckets=7),
            dict(budget=5, n_buckets=0),
            dict(budget=5, n_breaks=0),
            dict(budget=5, temperature=0.0),
            dict(budget=5, temperature=float("nan")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AcquisitionConfig(**kwargs)


class TestParallelRanges:
    """The one thread helper: contiguous parts of range(n_items), one per thread."""

    @staticmethod
    def force(monkeypatch, workers):
        """Make every call parallel, on the given number of threads."""
        monkeypatch.setattr(dacs.core, "_PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(dacs.core, "_worker_count", lambda: workers)

    @staticmethod
    def record(n_items, work=0, scratch=0):
        calls, lock = [], threading.Lock()

        def fn(start, stop, buf):
            with lock:
                calls.append((start, stop, threading.get_ident()))

        _parallel_ranges(n_items, work, scratch, fn)
        return calls

    # The first of these BLAS thread variables that is set decides, as in
    # OpenBLAS: kernels use every CPU of the affinity mask only beside a
    # one-thread BLAS, and one thread beside a multithreaded or unset one.
    @pytest.mark.parametrize(
        "env, on_every_cpu",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
            ({"MKL_NUM_THREADS": "1"}, False),
        ],
    )
    def test_workers_follow_the_affinity_mask_beside_one_blas_thread(
        self, monkeypatch, tmp_path, env, on_every_cpu
    ):
        monkeypatch.setattr(dacs.core, "_CGROUP_CPU_MAX", str(tmp_path / "absent"))
        for var in dacs.core._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        expected = len(os.sched_getaffinity(0)) if on_every_cpu else 1
        assert _worker_count() == expected

    # cgroup v2 cpu.max: a quota caps the CPUs of the mask at quota / period,
    # rounded up; "max", a missing file or an unreadable one leave the mask.
    @pytest.mark.parametrize(
        "cpu_max, workers",
        [
            ("150000 100000\n", 2),
            ("50000 100000\n", 1),
            ("800000 100000\n", 4),
            ("max 100000\n", 4),
            (None, 4),
            ("garbled\n", 4),
        ],
    )
    def test_workers_follow_the_cgroup_cpu_quota(self, monkeypatch, tmp_path, cpu_max, workers):
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(dacs.core, "_CGROUP_CPU_MAX", str(path))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(dacs.core.os, "sched_getaffinity", lambda pid: set(range(4)))
        assert _worker_count() == workers

    @pytest.mark.parametrize("workers", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5, 17])
    def test_every_index_runs_exactly_once(self, monkeypatch, workers, n_items):
        self.force(monkeypatch, workers)
        calls = self.record(n_items)
        parts = sorted((a, b) for a, b, _ in calls)
        assert len(parts) == min(workers, n_items)
        assert all(a < b for a, b in parts)
        covered = [i for a, b in parts for i in range(a, b)]
        assert covered == list(range(n_items))

    def test_parts_run_at_once_off_the_calling_thread(self, monkeypatch):
        self.force(monkeypatch, 3)
        # Each part waits for the other two, so this passes only if all three
        # run at the same time; a missing thread breaks the barrier.
        barrier = threading.Barrier(3, timeout=10)
        threads = []

        def fn(start, stop, buf):
            threads.append(threading.get_ident())
            barrier.wait()

        _parallel_ranges(9, 0, 0, fn)
        assert len(set(threads)) == 3
        assert threading.get_ident() not in threads

    def test_each_part_gets_its_own_buffer(self, monkeypatch):
        self.force(monkeypatch, 3)
        bufs, lock = [], threading.Lock()

        def fn(start, stop, buf):
            buf[:] = start  # a shared buffer would be overwritten by another part
            with lock:
                bufs.append((start, buf))

        _parallel_ranges(9, 0, 5, fn)
        assert len(bufs) == 3
        for start, buf in bufs:
            assert buf.dtype == np.float64 and buf.shape == (5,)
            assert np.all(buf == start)

    # 64 CPUs and a budget of 40 floats: as many parts as 40 holds buffers;
    # a buffer larger than the budget gets one part, on the calling thread.
    @pytest.mark.parametrize("scratch, parts", [(0, 17), (10, 4), (13, 3), (21, 1), (41, 1)])
    def test_threads_are_capped_by_the_scratch_budget(self, monkeypatch, scratch, parts):
        self.force(monkeypatch, 64)
        monkeypatch.setattr(dacs.core, "_SCRATCH_BUDGET", 40)
        calls = self.record(17, scratch=scratch)
        assert len(calls) == parts
        if parts == 1:
            assert calls == [(0, 17, threading.get_ident())]

    def test_work_below_the_threshold_runs_inline(self, monkeypatch):
        monkeypatch.setattr(dacs.core, "_worker_count", lambda: 4)
        calls = self.record(9, work=dacs.core._PARALLEL_MIN_WORK - 1)
        assert calls == [(0, 9, threading.get_ident())]

    def test_work_at_the_threshold_is_split(self, monkeypatch):
        monkeypatch.setattr(dacs.core, "_worker_count", lambda: 4)
        calls = self.record(9, work=dacs.core._PARALLEL_MIN_WORK)
        assert len(calls) == 4

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        self.force(monkeypatch, 3)
        ran = []

        def fn(start, stop, buf):
            ran.append(start)
            if start == 3:
                raise ZeroDivisionError(f"part {start}-{stop}")

        with pytest.raises(ZeroDivisionError, match="part 3-6"):
            _parallel_ranges(9, 0, 0, fn)
        assert sorted(ran) == [0, 3, 6]


# Errors cross from a worker process to its parent pickled; each must come back
# whole: same type, message and fields.
@pytest.mark.parametrize(
    "error",
    [
        DegenerateInputError("row 3 has zero norm", row=3),
        DegenerateInputError("no row"),
        DivergenceError("non-finite loss at epoch 3 (lr=1e+307)", epoch=3, learning_rate=1e307),
        UndefinedCorrelationError("zero variance"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_errors_survive_a_pickle_round_trip(error):
    error.extra = "kept"
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert back.args == error.args
    assert str(back) == str(error)
    assert vars(back) == vars(error)
