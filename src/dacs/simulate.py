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
import json
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
    train,
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
    if spread < 0 or separation < 0:
        raise ValueError("spread and separation must be non-negative")
    return n_classes * per_class


def near_duplicate_rows(base_rows: int, replication: int, noise_sigma: float) -> int:
    """Row count of gen_near_duplicate with these arguments on base_rows rows, which it checks."""
    if replication < 1:
        raise ValueError("replication must be at least 1")
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
            embeddings, pool.unlabeled, acq_config.n_buckets,
            rng.derive("rho-unl"), acq_config.window,
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
            rng.derive("rho-test"), acq_config.window,
        )
        _, rho_loss = density_uncertainty_correlation(out_test, dens_test)
    except UndefinedCorrelationError:
        pass
    return rho_entropy, rho_loss


def _test_rows(n_rows: int, test_fraction: float) -> int:
    """Size of the held-out test split of n_rows rows."""
    return int(round(test_fraction * n_rows))


def check_run(
    n_rows: int, n_features: int, strategy: str, acq_config: AcquisitionConfig,
    model_config: ModelConfig, cycles: int, init_labeled: int, test_fraction: float,
) -> int:
    """Refuse what run_al would on an n_rows x n_features dataset; returns the test split's size.

    It needs the dataset's shape only, so a config is checked before any data exists.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = _test_rows(n_rows, test_fraction)
    n_train = n_rows - n_test
    if n_test < 1 or n_train < 2:
        raise ValueError("dataset too small for the requested test fraction")
    if init_labeled < 1 or init_labeled >= n_train:
        raise ValueError("init_labeled must be in [1, n_train)")
    if init_labeled + cycles * acq_config.budget > n_train:
        raise ValueError("initial labels plus per-cycle budgets exceed the training pool")
    check_reduced_dim(model_config, n_features)
    return n_test


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

    This is run_lockstep's one-run case; al_cycles holds the loop.

    Raises what the run raised, a DivergenceError among others.
    """
    (outcome,) = run_lockstep(
        dataset, [(strategy, rng)], acq_config, model_config, cycles, init_labeled, test_fraction
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_lockstep(
    dataset: SyntheticDataset,
    runs: list,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    cycles: int,
    init_labeled: int,
    test_fraction: float = TEST_FRACTION,
    scope=contextlib.nullcontext,
) -> list:
    """Run the (strategy, rng) runs on one dataset together, a cycle at a time.

    Runs with one Rng share their cycle 0 up to its first selection: it is
    computed once (first_cycle), and each of them gets the same objects.
    Each run's al_cycles loop is then advanced to its next training request;
    the pending requests that share a model config and a labeled count are
    trained as one stack by train_stacked, and each run gets its own model
    back, bit for bit the one it would train alone. A run's timings hold its
    share of the stacked steps and of its shared cycle 0.

    Returns each run's ExperimentReport, or the exception it raised (a
    DivergenceError among others), in run order; one run's failure does not
    stop the others, and an error in a shared cycle 0 is the outcome of
    every run sharing it. Work done for run i runs inside scope(i); a
    stacked step runs inside the scope of its lowest run. A shared cycle 0
    runs in no run's scope: the warnings it raises are issued again inside
    the scope of each run sharing it, when the run receives its cycle 0.
    """
    outcomes: list = [None] * len(runs)
    loops: list = [None] * len(runs)  # each run's al_cycles
    waiting: dict = {}  # Rng -> the runs that asked for its cycle 0
    pending: dict = {}  # lowest run index -> (training request, runs it serves, resume(trained))

    def advance(i, sent=None, log=()):
        """Run i up to its next request: log's warnings are issued, then sent goes in."""
        with scope(i):
            try:
                for warning in log:
                    _warn_again(*warning)
                if loops[i] is None:
                    strategy, rng = runs[i]
                    loops[i] = al_cycles(
                        dataset, strategy, acq_config, model_config, cycles, init_labeled, rng,
                        test_fraction,
                    )
                request = _resume(loops[i], sent)
            except StopIteration as done:
                outcomes[i] = done.value
                return
            except Exception as exc:  # the run's outcome; the other runs go on
                outcomes[i] = exc
                return
        if isinstance(request, Rng):  # the run asks for its cycle 0
            waiting.setdefault(request, []).append(i)
        else:
            pending[i] = (request, 1, lambda trained: advance(i, trained))

    def advance_shared(members, cycle_loop, sent=None, log=()):
        """A cycle 0 up to its next request, once for all its runs; its warnings join log."""
        log = list(log)
        with _record_warnings(log):
            try:
                request = _resume(cycle_loop, sent)
            except StopIteration as done:
                ended = done.value
            except Exception as exc:  # the outcome of every run sharing it
                ended = exc
            else:
                ended = None
        if ended is None:
            pending[members[0]] = (
                request, len(members),
                lambda trained: advance_shared(members, cycle_loop, trained, log),
            )
        else:
            for i in members:
                advance(i, ended, log)

    for i in range(len(runs)):
        advance(i)
    for rng, members in waiting.items():
        advance_shared(
            members,
            first_cycle(
                dataset, acq_config, model_config, init_labeled, rng, test_fraction, len(members)
            ),
        )
    while pending:
        stacks: dict = {}
        for key in sorted(pending):
            model, _, _, labeled = pending[key][0]
            stacks.setdefault((model.config, len(labeled)), []).append(key)
        for keys in stacks.values():
            requests, served, resumes = zip(*(pending.pop(key) for key in keys))
            t0 = time.perf_counter()
            with scope(keys[0]):
                try:
                    if len(keys) == 1:  # a lone run_al trains through model.train
                        trained = [train(*requests[0])]
                    else:
                        trained = train_stacked(*(list(column) for column in zip(*requests)))
                except Exception as exc:  # raised in every run of the stack
                    trained = [exc] * len(keys)
            share = (time.perf_counter() - t0) / sum(served)  # per run served
            for resume, n_runs, model in zip(resumes, served, trained):
                resume(model if isinstance(model, Exception) else (model, share * n_runs))
    return outcomes


def _resume(loop, sent):
    """Run a generator to its next yield: sent goes in, or is raised there if an exception."""
    return loop.throw(sent) if isinstance(sent, Exception) else loop.send(sent)


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


@dataclass(frozen=True, eq=False)
class FirstCycle:
    """A run's cycle 0 up to its first selection, which only the run's Rng decides.

    The split, the initial pool, the cycle-0 model's outputs on the training
    rows, its test accuracy and the density correlations; timings holds the
    seconds charged to each run sharing it.
    """

    X_train: FeatureMatrix
    y_train: np.ndarray
    X_test: FeatureMatrix
    y_test: np.ndarray
    pool: PoolState
    out_train: ModelOutputs
    embeddings: FeatureMatrix
    accuracy: float
    rho_entropy: float | None
    rho_loss: float | None
    timings: dict


def first_cycle(
    dataset: SyntheticDataset,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    init_labeled: int,
    rng: Rng,
    test_fraction: float = TEST_FRACTION,
    sharers: int = 1,
):
    """A run's cycle 0 up to its first selection, as a generator; returns its FirstCycle.

    It yields the cycle-0 training request and receives (trained model,
    seconds of training to charge its runs together), as al_cycles does.
    Each of the `sharers` runs it serves is charged an equal part of its
    seconds.
    """
    n_test = _test_rows(dataset.n, test_fraction)
    perm = rng.derive("split").generator().permutation(dataset.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    X_train = dataset.features.rows(train_idx)
    y_train = dataset.labels[train_idx]
    X_test = dataset.features.rows(test_idx)
    y_test = dataset.labels[test_idx]
    draw = rng.derive("init-labeled").generator()
    init_idx = np.sort(draw.choice(train_idx.size, size=init_labeled, replace=False))
    pool = make_pool(train_idx.size, init_idx)
    crng = rng.derive("cycle-0")
    out_train, out_test, accuracy, train_s = yield from _cycle_model(
        model_config, X_train, y_train, X_test, y_test, pool.labeled, crng
    )
    embeddings = out_train.embedding_matrix()
    t0 = time.perf_counter()
    rho_entropy, rho_loss = _density_correlations(
        pool, out_train, embeddings, out_test, acq_config, crng
    )
    density_s = time.perf_counter() - t0
    return FirstCycle(
        X_train=X_train,
        y_train=y_train,
        X_test=X_test,
        y_test=y_test,
        pool=pool,
        out_train=out_train,
        embeddings=embeddings,
        accuracy=accuracy,
        rho_entropy=rho_entropy,
        rho_loss=rho_loss,
        timings={"train": train_s / sharers, "density": density_s / sharers},
    )


def _cycle_model(model_config, X_train, y_train, X_test, y_test, labeled, crng):
    """One cycle's model, as a generator that yields its training request like al_cycles.

    Returns (outputs on the training rows, outputs on the test rows, test
    accuracy, seconds of initialising and training to charge).
    """
    t0 = time.perf_counter()
    model = init_model(model_config, X_train.d, crng.derive("model"))
    init_s = time.perf_counter() - t0
    model, train_s = yield model, X_train, y_train, labeled
    out_train = infer(model, X_train)
    out_test = infer(model, X_test, labels=y_test)
    accuracy = float((out_test.probs.argmax(axis=1) == y_test).mean())
    return out_train, out_test, accuracy, init_s + train_s


def al_cycles(
    dataset: SyntheticDataset,
    strategy: str,
    acq_config: AcquisitionConfig,
    model_config: ModelConfig,
    cycles: int,
    init_labeled: int,
    rng: Rng,
    test_fraction: float = TEST_FRACTION,
):
    """One run's acquisition loop, as a generator that leaves training to its driver.

    It first yields its rng and receives its FirstCycle, which first_cycle
    computes once for every run with that rng. Each later cycle it yields
    (untrained model, training rows, their labels, labeled indices) and
    receives (trained model, seconds of training to charge the run). It
    returns the ExperimentReport.

    A held-out test split (never visible to acquisition) measures accuracy.
    The report carries one record per trained model: records[t] has the model
    trained on the cycle-t labeled set plus the subset it selected; the final
    record has no selection. Density-uncertainty correlations come from the
    cycle-0 model.
    """
    check_run(
        dataset.n, dataset.features.d, strategy, acq_config, model_config, cycles, init_labeled,
        test_fraction,
    )
    first = yield rng
    X_train, y_train, X_test, y_test = first.X_train, first.y_train, first.X_test, first.y_test
    pool, out_train, embeddings = first.pool, first.out_train, first.embeddings
    accuracy = first.accuracy
    timings = {"train": first.timings["train"], "select": 0.0, "density": first.timings["density"]}
    rho_entropy, rho_loss = first.rho_entropy, first.rho_loss
    del first  # its outputs go with this cycle's
    n_train = X_train.n
    is_near_dup = dataset.generator == GENERATOR_NEAR_DUPLICATE
    dup_threshold = (
        duplicate_threshold(dataset.params["noise_sigma"], dataset.features.d)
        if is_near_dup
        else None
    )

    records: list[CycleRecord] = []
    for t in range(cycles + 1):
        crng = rng.derive(f"cycle-{t}")
        if t > 0:
            out_train, _, accuracy, train_s = yield from _cycle_model(
                model_config, X_train, y_train, X_test, y_test, pool.labeled, crng
            )
            timings["train"] += train_s
            embeddings = out_train.embedding_matrix()
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
        # The run waits for its next model beside the other runs of its
        # driver: hold only its data and pool meanwhile, not this cycle's outputs.
        del out_train, embeddings
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
