"""Desk-scale active-learning simulation: synthetic pools, the acquisition loop, reports.

Datasets are Gaussian class mixtures, optionally blown up with near-duplicate
noisy replicas. Each cycle retrains the toy learner from scratch on the labeled
set, runs one acquisition strategy on the learner's unit-sphere embeddings,
commits the picks, and records accuracy plus subset quality. Reports are
deterministic given (data seed, run seed, strategy, config); wall-clock timings
live in their own key so determinism checks can ignore them.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    AcquisitionConfig,
    FeatureMatrix,
    PoolState,
    Rng,
    UndefinedCorrelationError,
    commit_acquisition,
    make_pool,
)
from .density import DensityProfile, pool_density
from .model import (
    ModelConfig,
    ModelOutputs,
    check_reduced_dim,
    infer,
    init_model,
    train,  # unused here; perfbench's tracer wraps simulate.train and checks it
    train_stacked,
    uncertainty,
)
from .selection import STRATEGIES, select

GENERATOR_MIXTURE = "gaussian-mixture"
GENERATOR_NEAR_DUPLICATE = "near-duplicate"
# Share of the dataset run_al holds out for testing unless told otherwise.
TEST_FRACTION = 0.2


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


def mixture_rows(n_classes: int, per_class: int, dim: int, spread: float, separation: float) -> int:
    """Row count of gen_gaussian_mixture with these arguments, which it checks."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be positive")
    if not (math.isfinite(spread) and math.isfinite(separation)):
        raise ValueError("spread and separation must be finite")
    if spread < 0 or separation < 0:
        raise ValueError("spread and separation must be non-negative")
    return n_classes * per_class


def near_duplicate_rows(base_rows: int, replication: int, noise_sigma: float) -> int:
    """Row count of gen_near_duplicate with these arguments on base_rows rows, which it checks."""
    if replication < 1:
        raise ValueError("replication must be at least 1")
    if not math.isfinite(noise_sigma):
        raise ValueError("noise_sigma must be finite")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    return base_rows * (1 + replication)


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
    mixture_rows(n_classes, per_class, dim, spread, separation)
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
    near_duplicate_rows(base.n, replication, noise_sigma)
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
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields, with each record as a dict; nested values are the report's own."""
        return {**vars(self), "records": [dict(vars(record)) for record in self.records]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].test_accuracy


def _density_correlations(
    pool,
    out_train: ModelOutputs,
    embeddings: FeatureMatrix,
    out_test: ModelOutputs,
    acq_config: AcquisitionConfig,
    rng: Rng,
):
    """(rho_entropy, rho_loss) of one model, as density_uncertainty_correlation gives them.

    embeddings is out_train's embedding matrix. rho_entropy correlates
    density with entropy over the unlabeled pool, rho_loss with per-sample
    loss over the test split. Once one is undefined
    (UndefinedCorrelationError), it and the rest stay None.
    """
    rho_entropy = rho_loss = None
    try:
        dens_unl = pool_density(
            embeddings, pool.unlabeled, acq_config.n_buckets, rng.derive("rho-unl")
        )
        out_unl = ModelOutputs(
            probs=out_train.probs[pool.unlabeled],
            embeddings=out_train.embeddings[pool.unlabeled],
            entropy=out_train.entropy[pool.unlabeled],
        )
        rho_entropy, _ = density_uncertainty_correlation(out_unl, dens_unl)
        emb_test = out_test.embedding_matrix()
        dens_test = pool_density(
            emb_test, np.arange(emb_test.n, dtype=np.int64), acq_config.n_buckets,
            rng.derive("rho-test"),
        )
        _, rho_loss = density_uncertainty_correlation(out_test, dens_test)
    except UndefinedCorrelationError:
        pass
    return rho_entropy, rho_loss


def held_out_rows(n_rows: int, test_fraction: float) -> int:
    """Size of the held-out test split of n_rows rows, as run_al draws it."""
    return int(round(test_fraction * n_rows))


def check_run(
    n_rows: int, n_features: int, strategy: str, acq_config: AcquisitionConfig,
    model_config: ModelConfig, cycles: int, init_labeled: int, test_fraction: float,
) -> None:
    """Refuse what run_al would on an n_rows x n_features dataset.

    It needs the dataset's shape only, so a config is checked before any data exists.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = held_out_rows(n_rows, test_fraction)
    n_train = n_rows - n_test
    if n_test < 1 or n_train < 2:
        raise ValueError("dataset too small for the requested test fraction")
    if init_labeled < 1 or init_labeled >= n_train:
        raise ValueError("init_labeled must be in [1, n_train)")
    if init_labeled + cycles * acq_config.budget > n_train:
        raise ValueError("initial labels plus per-cycle budgets exceed the training pool")
    check_reduced_dim(model_config, n_features)


def run_al(
    dataset: SyntheticDataset,
    strategy: str,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    cycles: int,
    init_labeled: int,
    rng: Rng,
    test_fraction: float = TEST_FRACTION,
) -> ExperimentReport:
    """Pool-based acquisition loop with from-scratch retraining each cycle, for one run.

    A held-out test split (never visible to acquisition) measures accuracy.
    The report carries one record per trained model: records[t] has the model
    trained on the cycle-t labeled set plus the subset it selected; the final
    record has no selection. Density-uncertainty correlations come from the
    cycle-0 model.

    This is run_lockstep's one-run case. The run's warnings are issued after
    it, in order, from their origin; then it returns its report or raises
    what it raised, a DivergenceError among others.
    """
    ((outcome, log),) = run_lockstep(
        dataset, [(strategy, rng)], acq_config, model_config, cycles, init_labeled, test_fraction
    )
    for warning in log:
        _warn_again(*warning)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(eq=False)
class _Run:
    """A run of run_lockstep: its report as the cycles fill it in, and what they read."""

    rng: Rng
    report: ExperimentReport
    log: list = field(default_factory=list)  # its warnings, as _record_warnings keeps them
    data: tuple = ()  # (X_train, y_train, X_test, y_test), shared by the runs of its Rng
    pool: PoolState | None = None


def run_lockstep(
    dataset: SyntheticDataset,
    runs: list,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    cycles: int,
    init_labeled: int,
    test_fraction: float = TEST_FRACTION,
) -> list:
    """Run the (strategy, rng) runs on one dataset together, one cycle at a time.

    Each cycle trains one model per trainee: at cycle 0 one per distinct
    Rng, because up to its first selection a run's cycle 0 depends on its
    Rng alone, so its runs share the split, the model and the density
    correlations; after that one per run. Trainees that share a model config
    and a labeled count train as one stack in train_stacked, each bit for
    bit the model it would train alone. A run's timings hold its share of
    the stacked steps and of its shared cycle 0.

    Returns (outcome, warnings) per run, in run order. The outcome is the
    run's ExperimentReport or the exception it raised (a DivergenceError
    among others); one run's failure does not stop the others, and an error
    in a shared cycle 0 is the outcome of every run sharing it. The warnings
    are every warning the run raised, whatever the filters say, in order, as
    _warn_again issues them: one raised in a shared cycle 0 is in the log
    of every run sharing it, one raised in a stacked step in the log of the
    stack's lowest run.
    """
    config = {
        "dataset": {"generator": dataset.generator, **dataset.params, "data_seed": dataset.seed},
        "acquisition": asdict(acq_config),
        "model": asdict(model_config),
        "cycles": cycles,
        "init_labeled": init_labeled,
        "test_fraction": test_fraction,
    }
    state = []
    for strategy, rng in runs:
        timings = {"train": 0.0, "select": 0.0, "density": 0.0}
        report = ExperimentReport(strategy, rng.seed, copy.deepcopy(config), [], timings=timings)
        state.append(_Run(rng, report))
    outcomes: list = [None] * len(runs)

    def attempt(members, work, *args):
        """work(*args) for the member runs; None if it raised.

        Its warnings go into each member's log, and an exception it raises is
        each member's outcome.
        """
        caught: list = []
        with _record_warnings(caught):
            try:
                result = work(*args)
            except Exception as exc:
                result = None
                for i in members:
                    outcomes[i] = exc
        for i in members:
            state[i].log.extend(caught)
        return result

    for i, (strategy, _) in enumerate(runs):
        attempt(
            [i], check_run, dataset.n, dataset.features.d, strategy, acq_config, model_config,
            cycles, init_labeled, test_fraction,
        )
    for t in range(cycles + 1):
        # The live runs that share a model: at cycle 0 all of an Rng's, later each alone.
        trainees: dict = {}
        for i, run in enumerate(state):
            if outcomes[i] is None:
                trainees.setdefault(run.rng if t == 0 else i, []).append(i)
        stacks: dict = {}  # (model config, labeled count) -> [(members, untrained model)]
        for members in trainees.values():
            lead = state[members[0]]
            if t == 0:
                split = attempt(members, _split, dataset, init_labeled, lead.rng, test_fraction)
                if split is None:
                    continue
                for i in members:
                    state[i].data, state[i].pool = split
            t0 = time.perf_counter()
            model = attempt(
                members, init_model, model_config, lead.data[0].d,
                lead.rng.derive(f"cycle-{t}").derive("model"),
            )
            share = (time.perf_counter() - t0) / len(members)
            for i in members:
                state[i].report.timings["train"] += share
            if model is not None:
                key = (model.config, lead.pool.labeled.size)
                stacks.setdefault(key, []).append((members, model))
        trained = []  # (members, trained model or the exception it raised) per trainee
        for stack in stacks.values():
            served = [i for members, _ in stack for i in members]
            leads = [state[members[0]] for members, _ in stack]
            t0 = time.perf_counter()
            with _record_warnings(state[served[0]].log):  # the stack's lowest run
                try:
                    models = train_stacked(
                        [model for _, model in stack],
                        [lead.data[0] for lead in leads],
                        [lead.data[1] for lead in leads],
                        [lead.pool.labeled for lead in leads],
                    )
                except Exception as exc:  # raised in every run of the stack
                    models = [exc] * len(stack)
            share = (time.perf_counter() - t0) / len(served)
            for i in served:
                state[i].report.timings["train"] += share
            trained.extend(zip([members for members, _ in stack], models))
        for members, model in trained:
            if isinstance(model, Exception):  # the outcome of every run it serves
                for i in members:
                    outcomes[i] = model
                continue
            lead = state[members[0]]
            evaluated = attempt(members, _evaluate, model, lead.data)
            if evaluated is None:
                continue
            out_train, out_test, accuracy = evaluated
            embeddings = out_train.embedding_matrix()
            crng = lead.rng.derive(f"cycle-{t}")
            if t == 0:
                t0 = time.perf_counter()
                rho = attempt(
                    members, _density_correlations, lead.pool, out_train, embeddings, out_test,
                    acq_config, crng,
                )
                if rho is None:
                    continue
                share = (time.perf_counter() - t0) / len(members)
                for i in members:
                    report = state[i].report
                    report.rho_entropy, report.rho_loss = rho
                    report.timings["density"] += share
            for i in members:
                attempt(
                    [i], _acquire, state[i], t, cycles, out_train, embeddings, accuracy, acq_config,
                    crng, dataset,
                )
    return [(run.report if o is None else o, run.log) for o, run in zip(outcomes, state)]


def _split(dataset: SyntheticDataset, init_labeled: int, rng: Rng, test_fraction: float):
    """((X_train, y_train, X_test, y_test), initial pool) of a run: its Rng alone decides them."""
    n_test = held_out_rows(dataset.n, test_fraction)
    perm = rng.derive("split").generator().permutation(dataset.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    draw = rng.derive("init-labeled").generator()
    init_idx = np.sort(draw.choice(train_idx.size, size=init_labeled, replace=False))
    data = (
        dataset.features.rows(train_idx),
        dataset.labels[train_idx],
        dataset.features.rows(test_idx),
        dataset.labels[test_idx],
    )
    return data, make_pool(train_idx.size, init_idx)


def _evaluate(model, data: tuple):
    """(outputs on the training rows, outputs on the test rows, test accuracy) of a model."""
    X_train, _, X_test, y_test = data
    out_test = infer(model, X_test, labels=y_test)
    accuracy = float((out_test.probs.argmax(axis=1) == y_test).mean())
    return infer(model, X_train), out_test, accuracy


def _acquire(
    run: _Run, t: int, cycles: int, out_train: ModelOutputs, embeddings: FeatureMatrix,
    accuracy: float, acq_config: AcquisitionConfig, crng: Rng, dataset: SyntheticDataset,
) -> None:
    """Record cycle t of a run whose model is trained; before the last cycle, select and commit."""
    record = CycleRecord(
        cycle=t, labeled_fraction=run.pool.labeled.size / run.pool.n_total, test_accuracy=accuracy
    )
    run.report.records.append(record)
    if t == cycles:
        return
    t0 = time.perf_counter()
    result = select(
        run.report.strategy, run.pool, embeddings, acq_config, crng.derive("select"),
        uncertainty(out_train),
    )
    run.report.timings["select"] += time.perf_counter() - t0
    record.informativeness, record.diversity = subset_metrics(
        result.selected, out_train, embeddings
    )
    record.per_cluster = result.diagnostics.get("clusters")
    record.selected = [int(i) for i in result.selected]
    if dataset.generator == GENERATOR_NEAR_DUPLICATE:
        threshold = duplicate_threshold(dataset.params["noise_sigma"], dataset.features.d)
        record.near_duplicate_fraction = near_duplicate_fraction(
            run.data[0], result.selected, threshold
        )
    run.pool = commit_acquisition(run.pool, result.selected)


@contextlib.contextmanager
def _record_warnings(into: list):
    """Record every warning raised inside, whatever the filters say, into `into`.

    Each is kept as the (message, category, filename, lineno) that
    _warn_again issues again.
    """
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        yield
    into.extend((w.message, w.category, w.filename, w.lineno) for w in log)


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Issue a recorded warning under the current filters, from its origin.

    The origin's module name and registry are what warnings.warn would have
    used there, so module filters and once-per-location actions behave as
    they do for a warning raised in place.
    """
    module = next(
        (name for name, m in list(sys.modules.items()) if getattr(m, "__file__", None) == filename),
        None,
    )
    registry = vars(sys.modules[module]).setdefault("__warningregistry__", {}) if module else None
    warnings.warn_explicit(message, category, filename, lineno, module=module, registry=registry)
