"""Desk-scale learner: softmax classifier plus a normalized auxiliary projection head.

Both heads read the raw features. The main head classifies them; the
auxiliary head projects them to a narrow embedding, L2-normalizes each row,
and classifies through that bottleneck, so training shapes a unit-sphere
embedding the selection engine can hash. Total loss is the sum of the two
cross-entropies. The learning rate drops 10x at 80% of the epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, FeatureMatrix, Rng, RowView
from .selection import UncertaintyScores

UNCERTAINTY_ENTROPY = "entropy"


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    reduced_dim: int = 16
    epochs: int = 24
    batch_size: int = 64
    learning_rate: float = 0.32

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.reduced_dim < 1:
            raise ValueError("reduced_dim must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class ToyModel:
    config: ModelConfig
    rng: Rng
    params: dict
    epoch_losses: list | None = None


@dataclass
class ModelOutputs:
    """Forward-pass products: class probabilities, unit-norm embeddings, entropy, per-sample loss."""

    probs: np.ndarray
    embeddings: np.ndarray
    entropy: np.ndarray
    loss_per_sample: np.ndarray | None = None

    def embedding_matrix(self) -> FeatureMatrix:
        return FeatureMatrix(self.embeddings, unit_norm=True)


def check_reduced_dim(config: ModelConfig, n_features: int) -> None:
    """The embedding must be narrower than the features both heads read."""
    if not config.reduced_dim < n_features:
        raise ValueError(
            f"reduced_dim {config.reduced_dim} must be smaller than the feature dimension"
            f" {n_features}"
        )


def init_model(config: ModelConfig, n_features: int, rng: Rng) -> ToyModel:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights from the "init" stream, zero biases."""
    check_reduced_dim(config, n_features)
    gen = rng.derive("init").generator()

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return gen.uniform(-bound, bound, size=shape)

    params: dict[str, np.ndarray] = {}
    params["main_w"] = uniform(n_features, (n_features, config.n_classes))
    params["main_b"] = np.zeros(config.n_classes)
    params["proj_w"] = uniform(n_features, (n_features, config.reduced_dim))
    params["aux_w"] = uniform(config.reduced_dim, (config.reduced_dim, config.n_classes))
    params["aux_b"] = np.zeros(config.n_classes)
    return ToyModel(config=config, rng=rng, params=params)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of a C-contiguous array."""
    n = logits.shape[-1]
    # The row max does not depend on the order it is taken in, and one pass
    # down the columns of a transposed copy costs far less than one
    # reduction per short row.
    top = np.maximum.reduce(logits.reshape(-1, n).T.copy(), axis=0)
    shifted = logits - top.reshape(logits.shape[:-1] + (1,))
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _unit_rows(U: np.ndarray):
    """Returns (U / |u| per row, divisor per row, bad-row mask or None).

    Rows lie along the last axis, under any leading axes. A row without a
    usable direction (zero norm, or a norm that overflowed) parks on the first
    axis so the embedding stays exactly unit-norm; its divisor is 1. The norm
    is np.linalg.norm's, computed the same way.
    """
    norms = np.sqrt(np.add.reduce(U * U, axis=-1, keepdims=True))
    if np.minimum.reduce(norms, axis=None) > 0.0 and np.maximum.reduce(norms, axis=None) < np.inf:
        return U / norms, norms, None
    bad = ~np.isfinite(norms) | (norms == 0.0)
    safe = np.where(bad, 1.0, norms)
    Z = U / safe
    bad_rows = bad[..., 0]
    Z[bad_rows] = 0.0
    Z[bad_rows, 0] = 1.0
    return Z, safe, bad_rows


def _forward(params: dict, X: np.ndarray):
    """Returns (main logits, unit embeddings)."""
    return X @ params["main_w"] + params["main_b"], _unit_rows(X @ params["proj_w"])[0]


def loss_and_grads(params: dict, grads: dict, X: np.ndarray, y: np.ndarray):
    """Combined cross-entropy of one batch; writes its analytic gradients into grads.

    grads holds one array per parameter, shaped like it; every entry is
    overwritten.

    Any leading axes stack independent models: with K models every
    parameter and gradient carries a leading K axis, X is (K, B, d), y is
    (K, B), and the loss is one value per model. matmul calls BLAS once per
    stacked slice with the strides of the one-model call, and every
    elementwise op and reduction runs within one model, so each model's
    results are bit for bit those of its own call.

    Both heads live in one (2, ..., B, C) block, main logits first, so one
    log-softmax, one exp and one flat-index take serve both losses, while
    each head stays a contiguous (B, C) matrix: a strided head view can send
    a matrix-vector product down a different BLAS path and move last bits.
    Every element goes through the two-head arithmetic in the same order
    (both heads divided by B), so results are bit for bit those of computing
    the heads apart.
    """
    B = X.shape[-2]
    n_classes = params["main_b"].shape[-1]
    logits = np.empty((2,) + y.shape + (n_classes,))
    np.matmul(X, params["main_w"], out=logits[0])
    Z, norms, bad_rows = _unit_rows(X @ params["proj_w"])
    np.matmul(Z, params["aux_w"], out=logits[1])
    logits += np.array((params["main_b"], params["aux_b"]))[..., None, :]
    log_p = _log_softmax(logits)
    # flat index of each true-class entry, one block per head
    rows = y.size
    pick = (
        np.arange(0, rows * n_classes, n_classes).reshape(y.shape)
        + y
        + np.array([0, rows * n_classes]).reshape((2,) + (1,) * y.ndim)
    )
    sums = np.add.reduce(log_p.take(pick), axis=-1)
    loss = -(sums[0] / B) - sums[1] / B

    G = np.exp(log_p)
    G.reshape(-1)[pick] -= 1.0
    G_main, G_aux = G
    G /= B
    np.matmul(X.swapaxes(-1, -2), G_main, out=grads["main_w"])
    np.add.reduce(G_main, axis=-2, out=grads["main_b"])
    np.matmul(Z.swapaxes(-1, -2), G_aux, out=grads["aux_w"])
    np.add.reduce(G_aux, axis=-2, out=grads["aux_b"])
    G_z = G_aux @ params["aux_w"].swapaxes(-1, -2)
    # d(u/|u|) pulls out the radial component: (g - z <g,z>) / |u|.
    G_u = (G_z - Z * np.add.reduce(G_z * Z, axis=-1, keepdims=True)) / norms
    if bad_rows is not None:
        G_u[bad_rows] = 0.0
    np.matmul(X.swapaxes(-1, -2), G_u, out=grads["proj_w"])
    return loss


def _views(flat: np.ndarray, template: dict) -> dict:
    """Per-name views into the last axis of flat, laid out in template's order and shapes."""
    views, at = {}, 0
    for k, v in template.items():
        views[k] = flat[..., at : at + v.size].reshape(flat.shape[:-1] + v.shape)
        at += v.size
    return views


def train(
    model: ToyModel,
    features: FeatureMatrix,
    labels: np.ndarray,
    labeled_indices,
) -> ToyModel:
    """Mini-batch gradient descent on the labeled subset: train_stacked for one model.

    Returns a new model; raises DivergenceError on a non-finite loss.
    """
    (trained,) = train_stacked([model], [features], [labels], [labeled_indices])
    if isinstance(trained, DivergenceError):
        raise trained
    return trained


def train_stacked(models: list, features: list, labels: list, labeled: list) -> list:
    """Train K models in lockstep, each on its own data; returns each trained model.

    Model k trains on features[k] and labels[k] at the rows labeled[k]. Every
    model has the same config and labeled count, so all K take each step as
    one stacked step, bit for bit what each would compute alone. Each epoch
    shuffles every model's rows from its own "batch" stream; the learning
    rate drops 10x at 80% of the epochs (never with a single epoch).

    A model whose loss goes non-finite leaves the stack: its entry is the
    DivergenceError it would raise alone, and the others go on unchanged.
    """
    cfg = models[0].config
    labs = [np.asarray(lab, np.int64) for lab in labeled]
    n = labs[0].size
    if any(m.config != cfg for m in models) or any(lab.size != n for lab in labs):
        raise ValueError("stacked models need one config and one labeled count")
    if n == 0:
        raise ValueError("cannot train on an empty labeled set")
    labels = [np.asarray(y, np.int64) for y in labels]
    for y, lab in zip(labels, labs):
        if y[lab].min() < 0 or y[lab].max() >= cfg.n_classes:
            raise ValueError("labels out of range for configured class count")
    template = models[0].params
    # Parameters and gradients each live in one (K, P) block, a flat row per
    # model, so one update moves every parameter of every model; the step
    # reads and writes per-name (K, ...) views.
    flat = np.stack([np.concatenate([v.ravel() for v in m.params.values()]) for m in models])
    gflat = np.empty_like(flat)
    params, grads = _views(flat, template), _views(gflat, template)
    gens = [m.rng.derive("batch").generator() for m in models]
    active = list(range(len(models)))  # model index of each stack row
    results: list = [None] * len(models)
    epoch_losses: list = [[] for _ in models]
    lr = cfg.learning_rate
    decay_at = int(np.floor(0.8 * cfg.epochs))
    for epoch in range(cfg.epochs):
        if cfg.epochs > 1 and epoch == decay_at:
            lr *= 0.1
        # One gather per epoch makes every batch a contiguous slice.
        X_epoch = None  # free the last epoch's rows: one stack at a time
        X_epoch = np.empty((len(active), n, features[0].d))
        y_epoch = np.empty((len(active), n), np.int64)
        for row, k in enumerate(active):
            order = labs[k][gens[k].permutation(n)]
            features[k].take(order, out=X_epoch[row])
            y_epoch[row] = labels[k][order]
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            end = start + cfg.batch_size
            loss = loss_and_grads(params, grads, X_epoch[:, start:end], y_epoch[:, start:end])
            finite = np.isfinite(loss)
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    results[active[row]] = DivergenceError(
                        f"non-finite loss at epoch {epoch} (lr={lr})", epoch=epoch, learning_rate=lr
                    )
                active = [k for k, ok in zip(active, finite) if ok]
                if not active:
                    return results
                flat, gflat = flat[finite], gflat[finite]
                X_epoch, y_epoch, loss = X_epoch[finite], y_epoch[finite], loss[finite]
                batch_losses = [losses[finite] for losses in batch_losses]
                params, grads = _views(flat, template), _views(gflat, template)
            flat -= lr * gflat
            batch_losses.append(loss)
        # one contiguous row of batch losses per model, as a lone model has
        per_model = np.array(batch_losses).T.copy()
        for row, k in enumerate(active):
            epoch_losses[k].append(float(np.mean(per_model[row])))
    for row, k in enumerate(active):
        results[k] = ToyModel(
            config=cfg,
            rng=models[k].rng,
            params=_views(flat[row], template),
            epoch_losses=epoch_losses[k],
        )
    return results


def infer(model: ToyModel, features: FeatureMatrix | RowView, labels=None) -> ModelOutputs:
    """Forward pass over all rows, gathered as float64 by take; loss only when labels are given."""
    logits_main, Z = _forward(model.params, features.take(np.arange(features.n)))
    log_p = _log_softmax(logits_main)
    probs = np.exp(log_p)
    entropy = -(probs * np.where(probs > 0.0, log_p, 0.0)).sum(axis=1)
    loss_per_sample = None
    if labels is not None:
        y = np.asarray(labels, np.int64)
        if y.shape[0] != features.n:
            raise ValueError("labels must align with features")
        loss_per_sample = -log_p[np.arange(features.n), y]
    return ModelOutputs(probs=probs, embeddings=Z, entropy=entropy, loss_per_sample=loss_per_sample)


def uncertainty(outputs: ModelOutputs) -> UncertaintyScores:
    """Per-sample predictive entropy in nats; higher = more uncertain."""
    return UncertaintyScores(scores=outputs.entropy, source=UNCERTAINTY_ENTROPY)
