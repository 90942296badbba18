import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import dacs.simulate

from dacs.core import (
    AcquisitionConfig,
    DivergenceError,
    FeatureMatrix,
    Rng,
    RowView,
    UndefinedCorrelationError,
)
from dacs.density import DensityConvention, DensityProfile
from dacs.model import ModelConfig, ModelOutputs
from dacs.selection import STRATEGIES
from dacs.simulate import (
    GENERATOR_NEAR_DUPLICATE,
    _record_warnings,
    density_uncertainty_correlation,
    duplicate_threshold,
    gen_gaussian_mixture,
    gen_near_duplicate,
    near_duplicate_fraction,
    run_al,
    run_lockstep,
    subset_metrics,
)

# E[|noise|] for d=32, sigma=0.1: sigma * sqrt(2) * Gamma(16.5) / Gamma(16)
EXPECTED_REPLICA_DISTANCE = 0.5612839389220724


class TestGaussianMixture:
    def test_shapes_and_labels(self):
        ds = gen_gaussian_mixture(3, 40, 8, 1.0, 2.0, Rng(0, "sim"))
        assert ds.n == 120
        assert ds.features.d == 8
        assert np.array_equal(ds.labels, np.repeat(np.arange(3), 40))

    def test_deterministic(self):
        a = gen_gaussian_mixture(3, 10, 8, 1.0, 2.0, Rng(5, "sim"))
        b = gen_gaussian_mixture(3, 10, 8, 1.0, 2.0, Rng(5, "sim"))
        assert np.array_equal(a.features.data, b.features.data)
        c = gen_gaussian_mixture(3, 10, 8, 1.0, 2.0, Rng(6, "sim"))
        assert not np.array_equal(a.features.data, c.features.data)

    def test_orthonormal_means_sit_at_fixed_distances(self):
        # zero spread exposes the means: orthogonal directions of equal
        # length `separation` sit at separation * sqrt(2) from each other
        sep = 2.5
        ds = gen_gaussian_mixture(4, 2, 16, 0.0, sep, Rng(1, "sim"))
        X = ds.features.data
        assert np.allclose(np.linalg.norm(X, axis=1), sep, atol=1e-9)
        for i in range(0, 8, 2):
            assert np.allclose(X[i], X[i + 1])  # same class, zero spread
            for j in range(i + 2, 8, 2):
                assert abs(np.linalg.norm(X[i] - X[j]) - sep * math.sqrt(2)) <= 1e-9

    def test_more_classes_than_dims_fall_back_to_unit_directions(self):
        ds = gen_gaussian_mixture(6, 1, 3, 0.0, 4.0, Rng(2, "sim"))
        assert np.allclose(np.linalg.norm(ds.features.data, axis=1), 4.0, atol=1e-9)

    def test_separated_classes_are_nearest_neighbour_pure(self):
        ds = gen_gaussian_mixture(4, 50, 8, 0.5, 5.0, Rng(3, "sim"))
        X, y = ds.features.data, ds.labels
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        purity = (y[d2.argmin(axis=1)] == y).mean()
        assert purity >= 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1, "per_class": 5, "dim": 4},
            {"n_classes": 3, "per_class": 0, "dim": 4},
            {"n_classes": 3, "per_class": 5, "dim": 0},
            {"n_classes": 3, "per_class": 5, "dim": 4, "spread": -1.0},
            {"n_classes": 3, "per_class": 5, "dim": 4, "separation": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        full = {"spread": 1.0, "separation": 2.0, **kwargs}
        with pytest.raises(ValueError):
            gen_gaussian_mixture(rng=Rng(0, "sim"), **full)


class TestNearDuplicate:
    def base(self, seed=0):
        return gen_gaussian_mixture(3, 30, 32, 1.0, 2.0, Rng(seed, "sim"))

    def test_size_labels_and_interleaving(self):
        base = self.base()
        ds = gen_near_duplicate(base, 2, 0.1, Rng(0, "sim"))
        assert ds.n == 3 * base.n
        assert ds.generator == GENERATOR_NEAR_DUPLICATE
        assert np.array_equal(ds.labels, np.repeat(base.labels, 3))
        # copies of one point stay adjacent, original first
        originals = ds.features.data[::3]
        X = base.features.data
        standardized = (X - X.mean(axis=0)) / X.std(axis=0)
        assert np.allclose(originals, standardized, atol=1e-12)

    def test_zero_noise_gives_exact_copies(self):
        ds = gen_near_duplicate(self.base(), 1, 0.0, Rng(0, "sim"))
        assert np.array_equal(ds.features.data[::2], ds.features.data[1::2])

    def test_replica_distances_concentrate(self):
        base = gen_gaussian_mixture(3, 300, 32, 1.0, 2.0, Rng(0, "sim"))
        ds = gen_near_duplicate(base, 2, 0.1, Rng(1, "sim"))
        X = ds.features.data
        originals = X[::3]
        dist = np.concatenate(
            [np.linalg.norm(originals - X[k::3], axis=1) for k in (1, 2)]
        )
        # 1800 draws with per-draw sd about 0.07: the mean sits within 0.01
        assert abs(dist.mean() - EXPECTED_REPLICA_DISTANCE) <= 1e-2

    def test_rejects_bad_values(self):
        base = self.base()
        with pytest.raises(ValueError):
            gen_near_duplicate(base, 0, 0.1, Rng(0, "sim"))
        with pytest.raises(ValueError):
            gen_near_duplicate(base, 1, -0.1, Rng(0, "sim"))


class TestNearDuplicateFraction:
    def test_counts_only_close_pairs(self):
        X = FeatureMatrix(
            np.array([[0.0, 0.0], [0.05, 0.0], [5.0, 5.0], [9.0, 9.0]])
        )
        assert near_duplicate_fraction(X, [0, 1, 2, 3], 0.2) == 0.5
        assert near_duplicate_fraction(X, [0, 2, 3], 0.2) == 0.0
        assert near_duplicate_fraction(X, [0], 0.2) == 0.0

    def test_threshold_scales_with_dimension(self):
        assert duplicate_threshold(0.1, 32) == pytest.approx(0.3 * math.sqrt(32))
        assert duplicate_threshold(0.0, 32) == 0.0


def outputs_for(entropy, n_classes=3, loss=None):
    n = len(entropy)
    return ModelOutputs(
        probs=np.full((n, n_classes), 1.0 / n_classes),
        embeddings=np.eye(n, 4),
        entropy=np.asarray(entropy, dtype=np.float64),
        loss_per_sample=None if loss is None else np.asarray(loss, dtype=np.float64),
    )


class TestSubsetMetrics:
    def test_orthonormal_embeddings_have_unit_diversity(self):
        out = outputs_for([math.log(3.0)] * 4)
        emb = FeatureMatrix(np.eye(4), unit_norm=True)
        info, div = subset_metrics([0, 1, 2, 3], out, emb)
        assert info == pytest.approx(1.0)
        assert div == pytest.approx(1.0)

    def test_identical_embeddings_have_zero_diversity(self):
        out = outputs_for([0.0] * 3)
        emb = FeatureMatrix(np.tile([1.0, 0.0], (3, 1)), unit_norm=True)
        info, div = subset_metrics([0, 1, 2], out, emb)
        assert info == 0.0
        assert div == pytest.approx(0.0)

    def test_singleton_warns_and_scores_zero_diversity(self):
        out = outputs_for([0.5, 0.7])
        emb = FeatureMatrix(np.eye(2), unit_norm=True)
        with pytest.warns(UserWarning, match="single sample"):
            info, div = subset_metrics([1], out, emb)
        assert div == 0.0
        assert info == pytest.approx(0.7 / math.log(3.0))

    def test_empty_subset_rejected(self):
        out = outputs_for([0.5])
        emb = FeatureMatrix(np.eye(1, 2), unit_norm=True)
        with pytest.raises(ValueError, match="empty"):
            subset_metrics([], out, emb)


class TestFloat32Features:
    """The simulator's readers give on a float32 matrix, as a binary pool is
    kept, what they give on its float64 upcast, bit for bit."""

    def pair(self):
        base = gen_gaussian_mixture(3, 30, 8, 1.0, 2.0, Rng(2, "sim"))
        X32 = FeatureMatrix(base.features.data.astype(np.float32))
        return base, X32, FeatureMatrix(X32.data.astype(np.float64))

    def test_near_duplicates(self):
        base, X32, X64 = self.pair()
        a = gen_near_duplicate(dataclasses.replace(base, features=X32), 2, 0.1, Rng(0, "sim"))
        b = gen_near_duplicate(dataclasses.replace(base, features=X64), 2, 0.1, Rng(0, "sim"))
        assert np.array_equal(a.features.data, b.features.data)

    def test_subset_metrics_and_near_duplicate_fraction(self):
        _, X32, X64 = self.pair()
        rows = X32.data / np.linalg.norm(X32.data, axis=1)[:, None]
        unit32 = FeatureMatrix(rows.astype(np.float32))
        unit64 = FeatureMatrix(unit32.data.astype(np.float64))
        out = outputs_for(np.linspace(0.1, 1.0, 90))
        picked = [0, 4, 31, 32, 60, 89]
        assert subset_metrics(picked, out, unit32) == subset_metrics(picked, out, unit64)
        for threshold in (0.5, 2.0, 4.0):
            assert near_duplicate_fraction(X32, picked, threshold) == near_duplicate_fraction(
                X64, picked, threshold
            )


class TestDensityUncertaintyCorrelation:
    def profile(self, values):
        v = np.asarray(values, dtype=np.float64)
        return DensityProfile(
            values=v,
            convention=DensityConvention.SIMILARITY_BASED,
            params={},
        )

    def test_perfectly_opposed_inputs(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        out = outputs_for([5.0, 4.0, 3.0, 2.0, 1.0], loss=values)
        rho_e, rho_l = density_uncertainty_correlation(out, self.profile(values))
        assert rho_e == pytest.approx(-1.0)
        assert rho_l == pytest.approx(1.0)

    def test_loss_is_none_without_labels(self):
        out = outputs_for([1.0, 2.0, 3.0])
        _, rho_l = density_uncertainty_correlation(out, self.profile([3.0, 1.0, 2.0]))
        assert rho_l is None

    def test_zero_variance_is_undefined(self):
        out = outputs_for([1.0, 1.0, 1.0])
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            density_uncertainty_correlation(out, self.profile([1.0, 2.0, 3.0]))

    def test_single_sample_is_undefined(self):
        out = outputs_for([1.0])
        with pytest.raises(UndefinedCorrelationError):
            density_uncertainty_correlation(out, self.profile([1.0]))

    def test_size_mismatch_rejected(self):
        out = outputs_for([1.0, 2.0])
        with pytest.raises(ValueError, match="different sample counts"):
            density_uncertainty_correlation(out, self.profile([1.0, 2.0, 3.0]))


def small_settings(cycles=2, budget=6, data_seed=0):
    """The dataset and run_al settings of small_run."""
    ds = gen_gaussian_mixture(3, 40, 8, 1.0, 2.2, Rng(data_seed, "sim"))
    acq = AcquisitionConfig(budget=budget, n_buckets=4, n_breaks=2)
    model = ModelConfig(n_classes=3, reduced_dim=4, epochs=8, batch_size=32)
    return ds, {"acq_config": acq, "model_config": model, "cycles": cycles, "init_labeled": 6}


def small_run(strategy, seed=0, cycles=2, budget=6, data_seed=0):
    ds, settings = small_settings(cycles, budget, data_seed)
    return run_al(ds, strategy, rng=Rng(seed, "al"), **settings)


def without_timings(report) -> str:
    """The report's JSON without its wall-clock timings."""
    out = report.to_dict()
    del out["timings"]
    return json.dumps(out, sort_keys=True, indent=2)


# sha256 of the concatenated per-cycle picks of small_run(strategy); pins the
# scores, rng stream and density region each strategy is handed.
SMALL_RUN_PICK_DIGESTS = {
    "random": "707861f2003494a5ac29471fd44d780604417a347602a59585db9f3435172ae5",
    "coreset": "bee72648f268673fb5e8a5eeb911118a0f2911a3122073bbe54ca3339dc86394",
    "dacs": "c314fef9d10292c8b7207ae9a8880cbcedab5b0f1ef058f5267c65a9dd08ce56",
    "sparse-only": "4524b28a35a99b22804833c4abdd08afcf3811acf8e6d9d8b7ff38a8fdcc6f42",
    "dense-only": "321d5721780d42cc21e691576cb8a4a9e1fe0d6bf4ffaae10cc6cba782c7270f",
    "combined": "5e70dc34a3a74e803aa9ea5831b91d6c2a75f05ef8a38033d1877b807092a816",
    "entropy-top-b": "3d3141ab94fefa07e71935c14b3bb714542f27e3224d4167ca1d107e25daf3e8",
}


class TestRunAl:
    def test_split_views_the_dataset_rows(self):
        ds, _ = small_settings()
        (X_train, y_train, X_test, y_test), pool = dacs.simulate._split(ds, 6, Rng(0, "al"), 0.2)
        # Views of the dataset's own matrix: the split copies no row.
        assert isinstance(X_train, RowView) and X_train.parent is ds.features
        assert isinstance(X_test, RowView) and X_test.parent is ds.features
        both = np.concatenate([X_train.indices, X_test.indices])
        assert np.array_equal(np.sort(both), np.arange(ds.n))
        assert np.array_equal(y_train, ds.labels[X_train.indices])
        assert np.array_equal(y_test, ds.labels[X_test.indices])
        assert pool.n_total == X_train.n

    def test_every_strategy_completes(self):
        assert set(SMALL_RUN_PICK_DIGESTS) == set(STRATEGIES)
        for strategy in STRATEGIES:
            report = small_run(strategy)
            picks = [i for r in report.records[:-1] for i in r.selected]
            digest = hashlib.sha256(json.dumps(picks).encode()).hexdigest()
            assert digest == SMALL_RUN_PICK_DIGESTS[strategy], strategy
            assert len(report.records) == 3
            for r in report.records:
                assert 0.0 <= r.test_accuracy <= 1.0
            assert report.records[-1].selected is None
            assert report.final_accuracy == report.records[-1].test_accuracy

    def test_pool_bookkeeping(self):
        report = small_run("dacs")
        n_train = 120 - 24  # 20% held out
        picked = []
        for t, r in enumerate(report.records[:-1]):
            assert r.cycle == t
            assert len(r.selected) == 6
            assert r.labeled_fraction == pytest.approx((6 + 6 * t) / n_train)
            picked.extend(r.selected)
        assert len(set(picked)) == len(picked)
        assert report.records[-1].labeled_fraction == pytest.approx(18 / n_train)

    def test_cycle_zero_model_is_strategy_independent(self):
        accs = {s: small_run(s).records[0].test_accuracy for s in STRATEGIES}
        assert len(set(accs.values())) == 1
        rhos = {s: small_run(s).rho_entropy for s in STRATEGIES}
        assert len(set(rhos.values())) == 1

    def test_zero_cycles_still_reports(self):
        report = small_run("random", cycles=0)
        assert len(report.records) == 1
        assert report.records[0].selected is None
        assert isinstance(report.rho_entropy, float)
        assert isinstance(report.rho_loss, float)

    def test_reports_are_reproducible_byte_for_byte(self):
        a = small_run("dacs", seed=3)
        b = small_run("dacs", seed=3)
        assert without_timings(a) == without_timings(b)
        assert set(a.timings) == {"train", "select", "density"}
        assert all(v >= 0.0 for v in a.timings.values())

    def test_seed_changes_the_run(self):
        a = small_run("random", seed=3)
        b = small_run("random", seed=4)
        assert without_timings(a) != without_timings(b)

    def test_near_duplicate_runs_track_duplicate_pulls(self):
        base = gen_gaussian_mixture(3, 30, 8, 1.0, 2.2, Rng(0, "sim"))
        ds = gen_near_duplicate(base, 1, 0.1, Rng(0, "sim"))
        acq = AcquisitionConfig(budget=6, n_buckets=4, n_breaks=2)
        model = ModelConfig(n_classes=3, reduced_dim=4, epochs=8, batch_size=32)
        report = run_al(ds, "random", acq, model, cycles=1, init_labeled=6, rng=Rng(0, "al"))
        frac = report.records[0].near_duplicate_fraction
        assert frac is not None and 0.0 <= frac <= 1.0
        mixture = small_run("random", cycles=1)
        assert mixture.records[0].near_duplicate_fraction is None

    def test_budget_schedule_must_fit_the_pool(self):
        with pytest.raises(ValueError, match="exceed"):
            small_run("dacs", cycles=20)

    def test_rejects_bad_arguments(self):
        ds = gen_gaussian_mixture(3, 10, 8, 1.0, 2.2, Rng(0, "sim"))
        acq = AcquisitionConfig(budget=2, n_buckets=4)
        model = ModelConfig(n_classes=3, reduced_dim=4, epochs=2)
        with pytest.raises(ValueError, match="unknown strategy"):
            run_al(ds, "oracle", acq, model, 1, 2, Rng(0, "al"))
        with pytest.raises(ValueError, match="test_fraction"):
            run_al(ds, "random", acq, model, 1, 2, Rng(0, "al"), test_fraction=1.0)
        with pytest.raises(ValueError, match="init_labeled"):
            run_al(ds, "random", acq, model, 1, 0, Rng(0, "al"))
        with pytest.raises(ValueError, match="cycles"):
            run_al(ds, "random", acq, model, -1, 2, Rng(0, "al"))


class TestRunLockstep:
    """Runs advanced together give each run the report it gets alone."""

    RUNS = [("dacs", 0), ("random", 1), ("coreset", 0), ("dacs", 2), ("entropy-top-b", 1)]

    def test_every_run_reports_as_alone(self):
        # at budget 12, dense-only seed 2 clamps one cycle's budget to its
        # densest class (9 rows), so its later models train in a stack of their own
        for budget, runs in ((6, self.RUNS), (12, self.RUNS + [("dense-only", 2)])):
            ds, settings = small_settings(budget=budget)
            outcomes = run_lockstep(ds, [(s, Rng(seed, "al")) for s, seed in runs], **settings)
            for (strategy, seed), (report, log) in zip(runs, outcomes):
                alone = []
                with _record_warnings(alone):
                    want = small_run(strategy, seed=seed, budget=budget)
                assert without_timings(report) == without_timings(want)
                assert [(str(m), *w) for m, *w in log] == [(str(m), *w) for m, *w in alone]
                assert report.timings["train"] > 0.0
        clamped, log = outcomes[-1]
        assert [str(m) for m, *_ in log] == ["budget 12 exceeds densest class size 9; clamping"]
        assert clamped.records[-1].labeled_fraction < min(
            report.records[-1].labeled_fraction for report, _ in outcomes[:-1]
        )

    def test_a_failing_run_leaves_the_others_alone(self, monkeypatch):
        ds, settings = small_settings()
        real_select = dacs.simulate.select

        def select(strategy, pool, embeddings, acq_config, rng, scores):
            if strategy == "random" and rng.stream.endswith("cycle-1/select"):
                raise ZeroDivisionError("boom")
            return real_select(strategy, pool, embeddings, acq_config, rng, scores)

        monkeypatch.setattr(dacs.simulate, "select", select)
        runs = [(strategy, Rng(seed, "al")) for strategy, seed in self.RUNS]
        outcomes = run_lockstep(ds, runs, **settings)
        monkeypatch.undo()
        assert isinstance(outcomes[1][0], ZeroDivisionError)
        for i in (0, 2, 3, 4):
            strategy, seed = self.RUNS[i]
            want = small_run(strategy, seed=seed)
            assert without_timings(outcomes[i][0]) == without_timings(want)

    def test_a_shared_cycle_zero_warns_in_every_run_sharing_it(self):
        # 32 buckets over the 24 test rows: the cycle-0 test density warns
        ds, settings = small_settings()
        settings["acq_config"] = dataclasses.replace(settings["acq_config"], n_buckets=32)
        runs = [("random", Rng(0, "al")), ("coreset", Rng(1, "al")), ("coreset", Rng(0, "al"))]
        for (strategy, rng), (_, log) in zip(runs, run_lockstep(ds, runs, **settings)):
            alone = []
            with _record_warnings(alone):
                run_al(ds, strategy, rng=rng, **settings)
            shown = [(str(message), *rest) for message, *rest in log]
            assert shown == [(str(message), *rest) for message, *rest in alone]
            assert sum("smaller than k=32 buckets" in w[0] for w in shown) == 1

    def test_a_cycle_zero_divergence_reaches_every_run_sharing_it(self, monkeypatch):
        # seed 0's models train at a huge rate, so the cycle 0 that runs 0
        # and 2 share diverges; 20 initial labels give it 20 rows to blow up on
        ds, settings = small_settings()
        settings["init_labeled"] = 20
        real_init = dacs.simulate.init_model

        def init_model(config, d, rng):
            if rng.seed == 0:
                config = dataclasses.replace(config, learning_rate=1e307)
            return real_init(config, d, rng)

        monkeypatch.setattr(dacs.simulate, "init_model", init_model)
        runs = [(strategy, Rng(seed, "al")) for strategy, seed in self.RUNS]
        with np.errstate(all="ignore"):
            outcomes = [outcome for outcome, _ in run_lockstep(ds, runs, **settings)]
            with pytest.raises(DivergenceError) as alone:
                run_al(ds, "dacs", rng=Rng(0, "al"), **settings)
        assert isinstance(outcomes[0], DivergenceError)
        assert outcomes[2] is outcomes[0]
        assert str(outcomes[0]) == str(alone.value)
        assert outcomes[0].epoch == alone.value.epoch
        for i in (1, 3, 4):
            strategy, seed = self.RUNS[i]
            want = run_al(ds, strategy, rng=Rng(seed, "al"), **settings)
            assert without_timings(outcomes[i]) == without_timings(want)
