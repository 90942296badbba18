import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacs.core import DivergenceError, FeatureMatrix, Rng
from dacs.model import (
    UNCERTAINTY_ENTROPY,
    ModelConfig,
    ModelOutputs,
    ToyModel,
    infer,
    init_model,
    loss_and_grads,
    train,
    train_stacked,
    uncertainty,
)

# H(0.9, 0.1) in nats, frozen from direct evaluation
ENTROPY_90_10 = 0.3250829733914482


def blob_data(seed=0, n_per=20, n_classes=3, d=6, scale=3.0):
    gen = Rng(seed, "data").generator()
    centers = gen.normal(size=(n_classes, d)) * scale
    labels = np.repeat(np.arange(n_classes), n_per)
    pts = centers[labels] + gen.normal(size=(n_per * n_classes, d))
    return FeatureMatrix(pts), labels


# ---------------------------------------------------------------- oracle
# The two-head, per-parameter training step that model.train replaced, kept
# verbatim (names prefixed) so the fused step can be checked bit for bit.


def _reference_log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_forward(params: dict, X: np.ndarray):
    """Returns (main logits, pre-norm projection, unit embeddings, aux logits)."""
    logits_main = X @ params["main_w"] + params["main_b"]
    U = X @ params["proj_w"]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    # A projection without a usable direction (zero norm, or a norm that
    # overflowed) parks on the first axis so the embedding stays exactly
    # unit-norm.
    bad = ~np.isfinite(norms) | (norms == 0.0)
    safe = np.where(bad, 1.0, norms)
    Z = U / safe
    bad_rows = bad.ravel()
    if np.any(bad_rows):
        Z[bad_rows, :] = 0.0
        Z[bad_rows, 0] = 1.0
    logits_aux = Z @ params["aux_w"] + params["aux_b"]
    return logits_main, U, Z, logits_aux


def reference_loss_and_grads(params: dict, X: np.ndarray, y: np.ndarray):
    """Combined cross-entropy and its analytic gradients for one batch."""
    B = X.shape[0]
    logits_main, U, Z, logits_aux = _reference_forward(params, X)
    n_classes = logits_main.shape[1]
    Y = np.zeros((B, n_classes))
    Y[np.arange(B), y] = 1.0
    log_p_main = _reference_log_softmax(logits_main)
    log_p_aux = _reference_log_softmax(logits_aux)
    loss_main = -log_p_main[np.arange(B), y].mean()
    loss_aux = -log_p_aux[np.arange(B), y].mean()
    loss = loss_main + loss_aux

    grads: dict[str, np.ndarray] = {}
    G_main = (np.exp(log_p_main) - Y) / B
    grads["main_w"] = X.T @ G_main
    grads["main_b"] = G_main.sum(axis=0)
    G_aux = (np.exp(log_p_aux) - Y) / B
    grads["aux_w"] = Z.T @ G_aux
    grads["aux_b"] = G_aux.sum(axis=0)
    G_z = G_aux @ params["aux_w"].T
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    safe = np.where(bad, 1.0, norms)
    # d(u/|u|) pulls out the radial component: (g - z <g,z>) / |u|.
    G_u = (G_z - Z * (G_z * Z).sum(axis=1, keepdims=True)) / safe
    G_u[bad.ravel(), :] = 0.0
    grads["proj_w"] = X.T @ G_u
    return loss, grads


def reference_train(
    model: ToyModel,
    features: FeatureMatrix,
    labels: np.ndarray,
    labeled_indices,
) -> ToyModel:
    """Bit-exact oracle for train: the per-parameter step it replaced.

    Mini-batch gradient descent on the labeled subset.

    Shuffles per epoch from the "batch" stream and decays the learning rate
    by 10x at 80% of epochs (never with a single epoch). Returns a new model;
    raises DivergenceError on a non-finite loss.
    """
    cfg = model.config
    lab = np.asarray(labeled_indices, np.int64)
    if lab.size == 0:
        raise ValueError("cannot train on an empty labeled set")
    y = np.asarray(labels, np.int64)[lab]
    if y.min() < 0 or y.max() >= cfg.n_classes:
        raise ValueError("labels out of range for configured class count")
    X = features.data[lab]
    params = {k: v.copy() for k, v in model.params.items()}
    gen = model.rng.derive("batch").generator()
    lr = cfg.learning_rate
    decay_at = int(np.floor(0.8 * cfg.epochs))
    epoch_losses = []
    for epoch in range(cfg.epochs):
        if cfg.epochs > 1 and epoch == decay_at:
            lr *= 0.1
        perm = gen.permutation(lab.size)
        batch_losses = []
        for start in range(0, lab.size, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            loss, grads = reference_loss_and_grads(params, X[sel], y[sel])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} (lr={lr})", epoch=epoch, learning_rate=lr
                )
            for k, g in grads.items():
                params[k] -= lr * g
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return ToyModel(config=cfg, rng=model.rng, params=params, epoch_losses=epoch_losses)


# ---------------------------------------------------------------- helpers


def step(params, X, y):
    """(loss, gradients) of one batch through the step train runs."""
    grads = {k: np.empty_like(v) for k, v in params.items()}
    loss = loss_and_grads(params, grads, X, y)
    return loss, grads


def fd_grad(loss_fn, params, key, eps=1e-6):
    """Central finite differences, one entry at a time."""
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


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        X, y = blob_data(seed=1, n_per=4, d=5)
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=1)
        model = init_model(cfg, 5, Rng(2, "model"))
        params = model.params
        Xb, yb = X.data[:12], y[:12]
        _, grads = step(params, Xb, yb)
        for key in params:
            want = fd_grad(lambda: step(params, Xb, yb)[0], params, key)
            got = grads[key]
            denom = np.maximum(np.abs(want), 1e-2)
            assert np.max(np.abs(got - want) / denom) <= 1e-5, key


class TestTraining:
    def test_loss_decreases(self):
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=40)
        model = train(init_model(cfg, 6, Rng(1, "model")), X, y, np.arange(60))
        losses = model.epoch_losses
        assert len(losses) == 40
        assert losses[-1] < 0.25 * losses[0]
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=10)
        a = train(init_model(cfg, 6, Rng(4, "model")), X, y, np.arange(60))
        b = train(init_model(cfg, 6, Rng(4, "model")), X, y, np.arange(60))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key]), key
        assert a.epoch_losses == b.epoch_losses

    def test_heads_are_disjoint(self):
        # both heads read the raw features, so the main head's trajectory
        # cannot feel where the auxiliary head starts
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=12)
        init = init_model(cfg, 6, Rng(5, "model"))
        moved = init_model(cfg, 6, Rng(5, "model"))
        for key in ("proj_w", "aux_w", "aux_b"):
            moved.params[key] += 0.5
        a = train(init, X, y, np.arange(60))
        b = train(moved, X, y, np.arange(60))
        assert np.array_equal(a.params["main_w"], b.params["main_w"])
        assert np.array_equal(a.params["main_b"], b.params["main_b"])
        assert not np.array_equal(a.params["proj_w"], b.params["proj_w"])

    def test_divergence_names_epoch_and_rate(self):
        X, y = blob_data()
        cfg = ModelConfig(
            n_classes=3,
            reduced_dim=2,
            epochs=5,
            learning_rate=1e307,
            batch_size=128,
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(init_model(cfg, 6, Rng(1, "model")), X, y, np.arange(60))
        assert exc.value.epoch == 1
        assert exc.value.learning_rate == 1e307

    def test_empty_labeled_rejected(self):
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2)
        with pytest.raises(ValueError, match="empty labeled"):
            train(init_model(cfg, 6, Rng(0, "model")), X, y, [])

    def test_out_of_range_labels_rejected(self):
        X, _ = blob_data()
        cfg = ModelConfig(n_classes=2, reduced_dim=2)
        bad = np.full(60, 5)
        with pytest.raises(ValueError, match="out of range"):
            train(init_model(cfg, 6, Rng(0, "model")), X, bad, np.arange(60))

    def test_trains_on_the_labeled_subset_only(self):
        X, y = blob_data()
        corrupted = y.copy()
        corrupted[30:] = 0  # garbage labels outside the labeled subset
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=8)
        a = train(init_model(cfg, 6, Rng(7, "model")), X, y, np.arange(30))
        b = train(init_model(cfg, 6, Rng(7, "model")), X, corrupted, np.arange(30))
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_single_epoch_never_decays(self):
        # two epochs decay at the second, so their first runs at the full
        # rate; over four batches a decayed first epoch would lose less
        X, y = blob_data()
        one = ModelConfig(n_classes=3, reduced_dim=2, epochs=1, batch_size=16)
        two = replace(one, epochs=2)
        a = train(init_model(one, 6, Rng(8, "model")), X, y, np.arange(60))
        b = train(init_model(two, 6, Rng(8, "model")), X, y, np.arange(60))
        assert a.epoch_losses == b.epoch_losses[:1]


def assert_train_matches_reference(cfg, X, y, lab, seed=0, prepare=None):
    init = init_model(cfg, X.d, Rng(seed, "model"))
    if prepare is not None:
        prepare(init.params)
    before = {k: v.copy() for k, v in init.params.items()}
    want = reference_train(init, X, y, lab)
    got = train(init, X, y, lab)
    assert list(got.params) == list(want.params)
    for key in want.params:
        assert got.params[key].shape == want.params[key].shape, key
        assert np.array_equal(got.params[key], want.params[key]), key
        assert np.array_equal(init.params[key], before[key]), key  # input untouched
    assert got.epoch_losses == want.epoch_losses


def oracle_data(n=900, d=6, n_classes=3, zero_rows=0, seed=0):
    X, y = blob_data(seed=seed, n_per=-(-n // n_classes), n_classes=n_classes, d=d)
    data = X.data[:n].copy()
    data[:zero_rows] = 0.0  # rows whose projection has zero norm
    return FeatureMatrix(data), y[:n]


# (feature width, reduced_dim, batch size) of the oracle checks: a small
# case, the committed grids' 32 -> 16 embedding, one-row batches, whose
# products are matrix-vector products, the widest embedding the features
# allow, a one-wide embedding, and a batch no labeled set fills.
STEP_SHAPES = [
    (6, 2, 64),
    (32, 16, 64),
    (6, 2, 1),
    (6, 5, 17),
    (16, 1, 64),
    (32, 16, 1000),
]


class TestTrainMatchesReference:
    """train is bit-identical to the per-parameter two-head step it replaced."""

    @pytest.mark.parametrize("n_labeled", [1, 63, 64, 65, 864])
    @pytest.mark.parametrize("d, reduced_dim, batch_size", STEP_SHAPES)
    def test_batch_remainders(self, d, reduced_dim, batch_size, n_labeled):
        X, y = oracle_data(d=d)
        lab = Rng(n_labeled, "lab").generator().permutation(X.n)[:n_labeled]
        cfg = ModelConfig(
            n_classes=3, reduced_dim=reduced_dim, epochs=3, batch_size=batch_size
        )
        assert_train_matches_reference(cfg, X, y, lab, seed=n_labeled)

    @pytest.mark.parametrize("reduced_dim", [2, 5])
    def test_zero_norm_projection_rows(self, reduced_dim):
        # zero feature rows project to zero
        X, y = oracle_data(n=150, zero_rows=20)
        cfg = ModelConfig(n_classes=3, reduced_dim=reduced_dim, epochs=4)
        assert_train_matches_reference(cfg, X, y, np.arange(150)[::-1])

    @pytest.mark.parametrize("reduced_dim", [2, 5])
    def test_zero_projection_everywhere(self, reduced_dim):
        X, y = oracle_data(n=100)
        cfg = ModelConfig(n_classes=3, reduced_dim=reduced_dim, epochs=3)

        def zero_projection(params):
            params["proj_w"][...] = 0.0

        assert_train_matches_reference(cfg, X, y, np.arange(100), prepare=zero_projection)

    # the rate drops at epoch floor(0.8 * epochs), counted from 0: epoch 1
    # of 2, 4 of 5, 4 of 6 and 8 of 10; a single epoch never drops it
    @pytest.mark.parametrize("epochs", [1, 2, 5, 6, 10])
    def test_schedules(self, epochs):
        X, y = oracle_data(n=200)
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=epochs)
        assert_train_matches_reference(cfg, X, y, np.arange(0, 200, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_shapes(self, data):
        n_classes = data.draw(st.integers(2, 12), label="n_classes")
        d = data.draw(st.integers(3, 9), label="d")
        reduced = data.draw(st.integers(1, d - 1), label="reduced_dim")
        n = data.draw(st.integers(1, 150), label="n_labeled")
        cfg = ModelConfig(
            n_classes=n_classes,
            reduced_dim=reduced,
            epochs=data.draw(st.integers(1, 4), label="epochs"),
            batch_size=data.draw(st.integers(1, 70), label="batch_size"),
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        X, y = oracle_data(n=n + 5, d=d, n_classes=n_classes, seed=seed)
        lab = Rng(seed, "lab").generator().permutation(n + 5)[:n]
        assert_train_matches_reference(cfg, X, y, lab, seed=seed)


def stack_inputs(cfg, K, n_labeled, d=6, zero_rows_in=None):
    """K models with their own seeds, features, labels and labeled sets of one size."""
    models, features, labels, labeled = [], [], [], []
    for k in range(K):
        zero_rows = 20 if k == zero_rows_in else 0
        X, y = oracle_data(n=300, d=d, zero_rows=zero_rows, seed=k)
        features.append(X)
        labels.append(y)
        lab = Rng(k, "lab").generator().permutation(X.n)[:n_labeled]
        if zero_rows:
            lab[:5] = np.arange(5)  # train on some of the zero rows
        labeled.append(lab)
        models.append(init_model(cfg, d, Rng(100 + k, "model")))
    return models, features, labels, labeled


def assert_same_model(got, want):
    assert list(got.params) == list(want.params)
    for key in want.params:
        assert got.params[key].shape == want.params[key].shape, key
        assert np.array_equal(got.params[key], want.params[key]), key
    assert got.epoch_losses == want.epoch_losses


class TestTrainStackedMatchesReference:
    """Each model of a stack is bit-identical to the per-parameter oracle run alone."""

    @pytest.mark.parametrize("K", [2, 3, 7])
    @pytest.mark.parametrize("n_labeled", [1, 33, 64, 150])
    @pytest.mark.parametrize("d, reduced_dim, batch_size", STEP_SHAPES)
    def test_every_model_matches_its_solo_oracle(self, d, reduced_dim, batch_size, n_labeled, K):
        cfg = ModelConfig(
            n_classes=3, reduced_dim=reduced_dim, epochs=3, batch_size=batch_size
        )
        models, features, labels, labeled = stack_inputs(cfg, K, n_labeled, d=d)
        got = train_stacked(models, features, labels, labeled)
        assert len(got) == K
        for k in range(K):
            want = reference_train(models[k], features[k], labels[k], labeled[k])
            assert_same_model(got[k], want)

    @pytest.mark.parametrize("reduced_dim", [2, 5])
    def test_zero_norm_projection_rows_in_one_model_only(self, reduced_dim):
        cfg = ModelConfig(n_classes=3, reduced_dim=reduced_dim, epochs=4)
        models, features, labels, labeled = stack_inputs(cfg, 3, 65, zero_rows_in=1)
        got = train_stacked(models, features, labels, labeled)
        for k in range(3):
            want = reference_train(models[k], features[k], labels[k], labeled[k])
            assert_same_model(got[k], want)

    def test_a_diverging_model_leaves_the_stack(self):
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=5, batch_size=16)
        models, features, labels, labeled = stack_inputs(cfg, 4, 100)
        # huge features blow up the second model's weights within its first epoch
        features[1] = FeatureMatrix(features[1].data * 1e200)
        with np.errstate(all="ignore"):
            got = train_stacked(models, features, labels, labeled)
            with pytest.raises(DivergenceError) as alone:
                reference_train(models[1], features[1], labels[1], labeled[1])
        assert isinstance(got[1], DivergenceError)
        assert got[1].epoch == alone.value.epoch == 0
        assert got[1].learning_rate == alone.value.learning_rate
        assert str(got[1]) == str(alone.value)
        for k in (0, 2, 3):
            want = reference_train(models[k], features[k], labels[k], labeled[k])
            assert_same_model(got[k], want)

    def test_one_model_is_train(self):
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=3)
        models, features, labels, labeled = stack_inputs(cfg, 1, 70)
        (got,) = train_stacked(models, features, labels, labeled)
        assert_same_model(got, train(models[0], features[0], labels[0], labeled[0]))

    def test_a_stack_needs_one_config_and_one_labeled_count(self):
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=1)
        models, features, labels, labeled = stack_inputs(cfg, 2, 40)
        with pytest.raises(ValueError, match="one labeled count"):
            train_stacked(models, features, labels, [labeled[0], labeled[1][:30]])
        other = init_model(ModelConfig(n_classes=3, reduced_dim=2, epochs=2), 6, Rng(0, "m"))
        with pytest.raises(ValueError, match="one config"):
            train_stacked([models[0], other], features, labels, labeled)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"n_classes": 3, "reduced_dim": 0},
            {"n_classes": 3, "epochs": 0},
            {"n_classes": 3, "batch_size": 0},
            {"n_classes": 3, "learning_rate": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_reduced_dim_must_be_below_the_feature_dimension(self):
        cfg = ModelConfig(n_classes=3, reduced_dim=6)
        with pytest.raises(ValueError, match="smaller than the feature dimension 6"):
            init_model(cfg, 6, Rng(0, "model"))
        assert init_model(cfg, 7, Rng(0, "model")).params["proj_w"].shape == (7, 6)


class TestInference:
    def test_zeroed_model_is_maximally_uncertain(self):
        X, _ = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2)
        model = init_model(cfg, 6, Rng(9, "model"))
        for v in model.params.values():
            v[...] = 0.0
        out = infer(model, X)
        assert np.allclose(out.probs, 1.0 / 3.0, atol=1e-15)
        assert np.allclose(out.entropy, math.log(3.0), atol=1e-12)
        # zero projections park every embedding on the first axis
        assert np.allclose(out.embeddings[:, 0], 1.0)
        assert np.allclose(out.embeddings[:, 1:], 0.0)

    def test_entropy_spot_value(self):
        X = FeatureMatrix(np.zeros((4, 3)) + 0.0)
        cfg = ModelConfig(n_classes=2, reduced_dim=2)
        model = init_model(cfg, 3, Rng(10, "model"))
        for v in model.params.values():
            v[...] = 0.0
        model.params["main_b"][:] = np.log([0.9, 0.1])
        out = infer(model, X)
        assert np.allclose(out.probs, [0.9, 0.1], atol=1e-15)
        assert np.allclose(out.entropy, ENTROPY_90_10, atol=1e-12)

    def test_probabilities_and_embeddings_are_well_formed(self):
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=10)
        model = train(init_model(cfg, 6, Rng(11, "model")), X, y, np.arange(60))
        out = infer(model, X, labels=y)
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.probs >= 0)
        assert np.allclose(np.linalg.norm(out.embeddings, axis=1), 1.0, atol=1e-9)
        assert out.embedding_matrix().unit_norm
        # per-sample loss is the negative log-likelihood of the true label
        want = -np.log(out.probs[np.arange(60), y])
        assert np.allclose(out.loss_per_sample, want, atol=1e-12)

    def test_loss_requires_aligned_labels(self):
        X, y = blob_data()
        cfg = ModelConfig(n_classes=3, reduced_dim=2)
        model = init_model(cfg, 6, Rng(0, "model"))
        with pytest.raises(ValueError, match="align"):
            infer(model, X, labels=y[:10])
        assert infer(model, X).loss_per_sample is None


class TestFloat32Features:
    """A float32 matrix, as a binary pool is kept, trains and infers as its
    float64 upcast does, bit for bit."""

    def pair(self):
        X, y = blob_data()
        X32 = FeatureMatrix(X.data.astype(np.float32))
        return X32, FeatureMatrix(X32.data.astype(np.float64)), y

    def assert_same_model(self, a, b):
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key]), key
        assert a.epoch_losses == b.epoch_losses

    def test_train_and_infer_match_the_upcast(self):
        X32, X64, y = self.pair()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=6, batch_size=8)
        labeled = np.arange(1, 60, 2)
        a = train(init_model(cfg, 6, Rng(2, "model")), X32, y, labeled)
        b = train(init_model(cfg, 6, Rng(2, "model")), X64, y, labeled)
        self.assert_same_model(a, b)
        got, want = infer(a, X32, labels=y), infer(b, X64, labels=y)
        for field in ("probs", "embeddings", "entropy", "loss_per_sample"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_a_stack_mixes_float32_and_float64_features(self):
        X32, X64, y = self.pair()
        cfg = ModelConfig(n_classes=3, reduced_dim=2, epochs=4, batch_size=8)
        models = [init_model(cfg, 6, Rng(seed, "model")) for seed in (3, 4)]
        labeled = [np.arange(0, 60, 3), np.arange(1, 60, 3)]
        stacked = train_stacked(models, [X32, X64], [y, y], labeled)
        for model, lab, got in zip(models, labeled, stacked):
            self.assert_same_model(got, train(model, X64, y, lab))


class TestUncertainty:
    def test_entropy_passthrough(self):
        out = ModelOutputs(
            probs=np.array([[0.5, 0.5]]),
            embeddings=np.array([[1.0, 0.0]]),
            entropy=np.array([0.3]),
        )
        scores = uncertainty(out)
        assert scores.source == UNCERTAINTY_ENTROPY
        assert scores.scores.tolist() == [0.3]
