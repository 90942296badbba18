"""Desk-scale active-learning simulation: synthetic pools, the acquisition loop, reports.

Datasets are Gaussian class mixtures, optionally blown up with near-duplicate
noisy replicas. Each cycle retrains the toy learner from scratch on the labeled
set, runs one acquisition strategy on the learner's unit-sphere embeddings,
commits the picks, and records accuracy plus subset quality. Reports are
deterministic given (data seed, run seed, strategy, config); wall-clock timings
live in their own key so determinism checks can ignore them.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    AcquisitionConfig,
    FeatureMatrix,
    Rng,
    UndefinedCorrelationError,
    commit_acquisition,
    make_pool,
)
from .density import DensityProfile
from .model import ModelConfig, ModelOutputs, infer, init_model, train, uncertainty
from .selection import STRATEGIES, pool_density, select

GENERATOR_MIXTURE = "gaussian-mixture"
GENERATOR_NEAR_DUPLICATE = "near-duplicate"


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    features: FeatureMatrix
    labels: np.ndarray
    generator: str
    params: dict
    seed: int

    @property
    def n(self) -> int:
        return self.features.n

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def gen_gaussian_mixture(
    n_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    separation: float,
    rng: Rng,
) -> SyntheticDataset:
    """Isotropic Gaussian blobs around well-separated class means.

    Means are random orthonormal directions (random unit directions when
    n_classes > dim) scaled by separation; points add spread-scaled standard
    normal noise. Both draws come from the "data" stream.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be positive")
    if spread < 0 or separation < 0:
        raise ValueError("spread and separation must be non-negative")
    gen = rng.derive("data").generator()
    raw = gen.standard_normal((n_classes, dim))
    if n_classes <= dim:
        q, _ = np.linalg.qr(raw.T)
        means = q.T[:n_classes] * separation
    else:
        means = raw / np.linalg.norm(raw, axis=1, keepdims=True) * separation
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    points = means[labels] + spread * gen.standard_normal((labels.size, dim))
    return SyntheticDataset(
        features=FeatureMatrix(points),
        labels=labels,
        generator=GENERATOR_MIXTURE,
        params={
            "n_classes": n_classes,
            "per_class": per_class,
            "dim": dim,
            "spread": spread,
            "separation": separation,
        },
        seed=rng.seed,
    )


def gen_near_duplicate(
    base: SyntheticDataset,
    replication: int,
    noise_sigma: float,
    rng: Rng,
) -> SyntheticDataset:
    """Standardize the base features, then append noisy replicas of every point.

    Each point gains `replication` extra copies with isotropic Gaussian noise
    of std noise_sigma (labels copied), so the output has (1 + replication)
    times the base size. Copies of one point stay adjacent: original first.
    """
    if replication < 1:
        raise ValueError("replication must be at least 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    X = base.features.data
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    Xn = (X - X.mean(axis=0)) / sd
    n, d = Xn.shape
    gen = rng.derive("replicate").generator()
    noise = noise_sigma * gen.standard_normal((n, replication, d))
    stacked = np.concatenate([Xn[:, None, :], Xn[:, None, :] + noise], axis=1)
    return SyntheticDataset(
        features=FeatureMatrix(stacked.reshape(-1, d)),
        labels=np.repeat(base.labels, replication + 1),
        generator=GENERATOR_NEAR_DUPLICATE,
        params={
            **base.params,
            "replication": replication,
            "noise_sigma": noise_sigma,
            "base_n": n,
        },
        seed=rng.seed,
    )


def near_duplicate_fraction(features: FeatureMatrix, selected, threshold: float) -> float:
    """Fraction of selected samples with another selected sample closer than threshold."""
    idx = np.asarray(selected, np.int64)
    if idx.size < 2:
        return 0.0
    X = features.data[idx]
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    return float(np.mean(np.sqrt(np.maximum(d2.min(axis=1), 0.0)) < threshold))


def duplicate_threshold(noise_sigma: float, dim: int) -> float:
    """Distance below which two samples count as near-duplicates.

    Replica noise is isotropic with per-coordinate std noise_sigma, so its
    Euclidean length concentrates around noise_sigma * sqrt(dim); three times
    that scale cleanly covers replica pairs without reaching across blobs.
    """
    return 3.0 * noise_sigma * np.sqrt(dim)


def subset_metrics(selected, outputs: ModelOutputs, embeddings: FeatureMatrix):
    """(informativeness, diversity) of a selected subset.

    Informativeness is mean predictive entropy normalized by ln(n_classes);
    diversity is mean pairwise cosine distance between the subset's unit-norm
    embeddings. A singleton subset has diversity 0 (with a warning).
    """
    idx = np.asarray(selected, np.int64)
    if idx.size == 0:
        raise ValueError("subset is empty")
    n_classes = outputs.probs.shape[1]
    info = float(outputs.entropy[idx].mean() / np.log(n_classes))
    if idx.size == 1:
        warnings.warn("diversity of a single sample is 0 by convention")
        return info, 0.0
    E = embeddings.data[idx]
    sims = E @ E.T
    iu = np.triu_indices(idx.size, k=1)
    diversity = float((1.0 - sims[iu]).mean())
    return info, diversity


def density_uncertainty_correlation(outputs: ModelOutputs, density: DensityProfile):
    """Pearson correlations (rho_entropy, rho_loss) of density against uncertainty.

    outputs must align row-for-row with density.indices. rho_loss is None when
    the outputs carry no per-sample loss (no labels were given). Zero variance
    in any input raises UndefinedCorrelationError.
    """
    values = density.values
    if values.size != outputs.entropy.size:
        raise ValueError("density profile and outputs cover different sample counts")
    if values.size < 2:
        raise UndefinedCorrelationError("need at least 2 samples for a correlation")

    def pearson(a, b):
        if np.std(a) == 0.0 or np.std(b) == 0.0:
            raise UndefinedCorrelationError("correlation undefined: zero variance input")
        return float(np.corrcoef(a, b)[0, 1])

    rho_entropy = pearson(values, outputs.entropy)
    rho_loss = None
    if outputs.loss_per_sample is not None:
        rho_loss = pearson(values, outputs.loss_per_sample)
    return rho_entropy, rho_loss


@dataclass
class CycleRecord:
    cycle: int
    labeled_fraction: float
    test_accuracy: float
    informativeness: float | None = None
    diversity: float | None = None
    per_cluster: list | None = None
    selected: list | None = None
    near_duplicate_fraction: float | None = None


@dataclass
class ExperimentReport:
    strategy: str
    seed: int
    config: dict
    records: list
    rho_entropy: float | None = None
    rho_loss: float | None = None
    error: str | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "strategy": self.strategy,
            "seed": self.seed,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "rho_entropy": self.rho_entropy,
            "rho_loss": self.rho_loss,
            "error": self.error,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2)

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].test_accuracy


def run_al(
    dataset: SyntheticDataset,
    strategy: str,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    cycles: int,
    init_labeled: int,
    rng: Rng,
    test_fraction: float = 0.2,
) -> ExperimentReport:
    """Pool-based acquisition loop with from-scratch retraining each cycle.

    A held-out test split (never visible to acquisition) measures accuracy.
    The report carries one record per trained model: records[t] has the model
    trained on the cycle-t labeled set plus the subset it selected; the final
    record has no selection. Density-uncertainty correlations come from the
    cycle-0 model.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    n = dataset.n
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n - n_test < 2:
        raise ValueError("dataset too small for the requested test fraction")
    perm = rng.derive("split").generator().permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    n_train = train_idx.size
    if init_labeled < 1 or init_labeled >= n_train:
        raise ValueError("init_labeled must be in [1, n_train)")
    if init_labeled + cycles * acq_config.budget > n_train:
        raise ValueError(
            "initial labels plus per-cycle budgets exceed the training pool"
        )
    X_train = dataset.features.rows(train_idx)
    y_train = dataset.labels[train_idx]
    X_test = dataset.features.rows(test_idx)
    y_test = dataset.labels[test_idx]

    init_idx = np.sort(
        rng.derive("init-labeled").generator().choice(n_train, size=init_labeled, replace=False)
    )
    pool = make_pool(n_train, init_idx)
    is_near_dup = dataset.generator == GENERATOR_NEAR_DUPLICATE
    dup_threshold = (
        duplicate_threshold(dataset.params["noise_sigma"], dataset.features.d)
        if is_near_dup
        else None
    )

    records: list[CycleRecord] = []
    timings: dict[str, float] = {"train": 0.0, "select": 0.0, "density": 0.0}
    rho_entropy = rho_loss = None
    for t in range(cycles + 1):
        crng = rng.derive(f"cycle-{t}")
        t0 = time.perf_counter()
        model = init_model(model_config, dataset.features.d, crng.derive("model"))
        model = train(model, X_train, y_train, pool.labeled)
        timings["train"] += time.perf_counter() - t0
        out_train = infer(model, X_train)
        out_test = infer(model, X_test, labels=y_test)
        accuracy = float((out_test.probs.argmax(axis=1) == y_test).mean())
        embeddings = out_train.embedding_matrix()
        if t == 0:
            t0 = time.perf_counter()
            try:
                dens_unl = pool_density(embeddings, pool.unlabeled, acq_config, crng.derive("rho-unl"))
                out_unl = ModelOutputs(
                    probs=out_train.probs[pool.unlabeled],
                    embeddings=out_train.embeddings[pool.unlabeled],
                    entropy=out_train.entropy[pool.unlabeled],
                )
                rho_entropy, _ = density_uncertainty_correlation(out_unl, dens_unl)
                emb_test = out_test.embedding_matrix()
                dens_test = pool_density(
                    emb_test, np.arange(n_test, dtype=np.int64), acq_config, crng.derive("rho-test")
                )
                _, rho_loss = density_uncertainty_correlation(out_test, dens_test)
            except UndefinedCorrelationError:
                pass
            timings["density"] += time.perf_counter() - t0
        frac = pool.labeled.size / n_train
        if t == cycles:
            records.append(CycleRecord(cycle=t, labeled_fraction=frac, test_accuracy=accuracy))
            break
        t0 = time.perf_counter()
        result = select(
            strategy, pool, embeddings, acq_config, crng.derive("select"), uncertainty(out_train)
        )
        timings["select"] += time.perf_counter() - t0
        info, diversity = subset_metrics(result.selected, out_train, embeddings)
        record = CycleRecord(
            cycle=t,
            labeled_fraction=frac,
            test_accuracy=accuracy,
            informativeness=info,
            diversity=diversity,
            per_cluster=result.diagnostics.get("clusters"),
            selected=[int(i) for i in result.selected],
            near_duplicate_fraction=(
                near_duplicate_fraction(X_train, result.selected, dup_threshold)
                if is_near_dup
                else None
            ),
        )
        records.append(record)
        pool = commit_acquisition(pool, result.selected)
    return ExperimentReport(
        strategy=strategy,
        seed=rng.seed,
        config={
            "dataset": {"generator": dataset.generator, **dataset.params, "data_seed": dataset.seed},
            "acquisition": asdict(acq_config),
            "model": asdict(model_config),
            "cycles": cycles,
            "init_labeled": init_labeled,
            "test_fraction": test_fraction,
        },
        records=records,
        rho_entropy=rho_entropy,
        rho_loss=rho_loss,
        timings=timings,
    )
