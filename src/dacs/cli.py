"""Command-line surface: select, density, simulate.

Exit codes: 0 success, 2 usage/parse errors (bad files, budget over pool),
3 when a simulation run diverged (partial results are kept).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
import warnings
from dataclasses import asdict

import numpy as np

from .config import (
    RunConfig,
    acquisition_config,
    dataset_from_config,
    parse_run_config,
    run_settings,
)
from .core import (
    AcquisitionConfig,
    DivergenceError,
    FeatureMatrix,
    Rng,
    _enter_worker_process,
    _worker_count,
    make_pool,
    normalize_rows,
)
from .density import METRIC_COSINE, METRIC_EUCLIDEAN, exact_knn_density, pool_density
from .formats import (
    ParseError,
    atomic_write_text,
    read_embeddings,
    read_embeddings_csv,
    read_index_file,
    read_scores_file,
)
from .selection import (
    SCORED_STRATEGIES,
    STRATEGIES,
    STRATEGY_DACS,
    STRATEGY_READS,
    UncertaintyScores,
    check_budget,
    select,
)
from .simulate import _warn_again, run_lockstep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# Largest pool `density --compare` accepts: its exact k-NN oracle is quadratic
# in the row count.
COMPARE_MAX_ROWS = 20_000


def _load_embeddings(args, normalize: bool) -> FeatureMatrix:
    """The --embeddings pool, unit-normalized (with a note) if asked.

    A file that starts "f0" is a CSV; any other is read as the binary
    container, whose reader names the byte offset of what is wrong with it.
    """
    with open(args.embeddings, "rb") as fh:
        read = read_embeddings_csv if fh.read(2) == b"f0" else read_embeddings
    embeddings = read(args.embeddings)
    if normalize and not embeddings.unit_norm:
        print("note: input rows are not flagged unit-norm; normalizing", file=sys.stderr)
        embeddings = normalize_rows(embeddings)
    return embeddings


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_select(args) -> int:
    given = getattr(args, "given", frozenset())
    # selection.STRATEGY_READS says who reads what; a fixed order picks the flag named.
    for dest in ("scores", "buckets", "breaks", "temperature", "seed"):
        if dest in given and dest not in STRATEGY_READS[args.strategy]:
            readers = [s for s, reads in STRATEGY_READS.items() if dest in reads]
            raise ParseError(
                f"--{dest} is read by --strategy {' or '.join(readers)} only;"
                f" {args.strategy} does not use it"
            )
    embeddings = _load_embeddings(args, normalize=True)
    labeled = read_index_file(args.labeled) if args.labeled else []
    pool = make_pool(embeddings.n, labeled)
    check_budget(args.budget, pool)
    config = acquisition_config(args, args.budget)
    rng = Rng(args.seed)
    scores = None
    if args.strategy in SCORED_STRATEGIES:
        if not args.scores:
            raise ParseError(f"strategy {args.strategy!r} requires --scores")
        scores = UncertaintyScores(scores=read_scores_file(args.scores))
    started = time.perf_counter()
    result = select(args.strategy, pool, embeddings, config, rng, scores)
    elapsed = time.perf_counter() - started
    payload = {
        "selected": [int(i) for i in result.selected],
        "per_cluster": [
            {"cluster": c.cluster, "budget": c.budget, "selected": [int(i) for i in c.selected]}
            for c in result.per_cluster
        ],
        "diagnostics": _json_safe(result.diagnostics),
        "config_echo": {**asdict(config), "strategy": args.strategy, "seed": rng.seed},
        # workers: threads a large density or k-center pass may run on here.
        "timings": {"select_seconds": elapsed, "workers": _worker_count()},
    }
    atomic_write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"selected {len(result.selected)} samples -> {args.out}", file=sys.stderr)
    return EXIT_OK


def spearman(a, b) -> float:
    """Spearman's rank correlation: Pearson's of the ranks, ties given their mean rank.

    NaN, with a warning, when either input is constant.
    """

    def ranks(v):
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    ra, rb = ranks(a), ranks(b)
    if np.ptp(ra) == 0 or np.ptp(rb) == 0:
        warnings.warn("rank correlation of a constant input is undefined")
        return math.nan
    return float(np.corrcoef(ra, rb)[0, 1])


def cmd_density(args) -> int:
    given = getattr(args, "given", frozenset())
    lsh, exact = args.mode == "lsh", args.mode == "exact"
    for flag, was_given, read, needs in (  # each flag, whether this run reads it, and when it does
        ("--compare", args.compare, lsh, "--mode lsh"),
        ("--buckets", "buckets" in given, lsh, "--mode lsh"),
        ("--seed", "seed" in given, lsh, "--mode lsh"),
        ("--metric", "metric" in given, exact, "--mode exact"),
        ("--knn", "knn" in given, exact or args.compare, "--mode exact or --compare"),
    ):
        if was_given and not read:
            raise ParseError(f"{flag} needs {needs}: --mode {args.mode} does not use it")
    embeddings = _load_embeddings(args, normalize=args.mode == "lsh")
    if args.compare and embeddings.n > COMPARE_MAX_ROWS:
        raise ParseError(
            f"--compare runs the quadratic exact k-NN oracle and accepts at most "
            f"{COMPARE_MAX_ROWS} rows; the pool has {embeddings.n}"
        )
    if args.mode == "exact":
        profile = exact_knn_density(embeddings, args.knn, metric=args.metric)
    else:
        rng = Rng(args.seed)
        profile = pool_density(embeddings, np.arange(embeddings.n), args.buckets, rng)
        if args.compare:
            exact = exact_knn_density(embeddings, args.knn, metric=METRIC_COSINE)
            rho = spearman(profile.values, -exact.values)
            print(
                f"spearman(fast density, negated exact {args.knn}-nn) = {rho:.4f}",
                file=sys.stderr,
            )
    lines = ["index,density,convention"]
    for i, v in enumerate(profile.values):
        lines.append(f"{i},{float(v)!r},{profile.convention.value}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {profile.values.size} densities -> {args.out}", file=sys.stderr)
    return EXIT_OK


# (dataset, run_settings, jobs) of the grid a worker process serves; set in the worker only.
_worker_grid: tuple = ()


def _start_grid_worker(*grid) -> None:
    global _worker_grid
    _worker_grid = grid
    _enter_worker_process()


def _lockstep(dataset, settings, jobs) -> list:
    """run_lockstep's (outcome, warnings) for each (strategy, seed) job, in job order."""
    return run_lockstep(dataset, [(strategy, Rng(seed)) for strategy, seed in jobs], **settings)


def _worker_group(group) -> list:
    """_lockstep on the jobs of _worker_grid at these indices, in a worker process.

    An error other than a DivergenceError travels as (error, its formatted
    traceback), which pickling would lose.
    """
    dataset, settings, jobs = _worker_grid
    return [
        ((o, "".join(traceback.format_exception(o))), log)
        if isinstance(o, Exception) and not isinstance(o, DivergenceError)
        else (o, log)
        for o, log in _lockstep(dataset, settings, [jobs[j] for j in group])
    ]


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of its error in the parent."""

    def __str__(self):
        return "\n" + self.args[0]


def _seed_major_groups(jobs, workers: int) -> list:
    """The indices of the (strategy, seed) jobs, dealt into `workers` groups.

    The jobs are taken seed-major, in the order their seeds first appear,
    and cut into contiguous groups whose sizes differ by at most one, so the
    runs of one seed, which share their cycle 0, mostly share a group.
    """
    seeds = list(dict.fromkeys(seed for _, seed in jobs))
    order = sorted(range(len(jobs)), key=lambda j: seeds.index(jobs[j][1]))
    bounds = [len(jobs) * g // workers for g in range(workers + 1)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_jobs(dataset, settings, jobs) -> list:
    """_lockstep on the jobs, on min(_worker_count(), len(jobs)) processes.

    On more than one, the jobs are dealt by _seed_major_groups, and each
    group runs in lockstep on a worker process forked from this one, which
    hands it the dataset without pickling it. _worker_count() is above 1
    only when BLAS runs one thread, so no BLAS threads are alive at the fork.
    A worker's error other than a DivergenceError comes as in _worker_group.
    """
    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return _lockstep(dataset, settings, jobs)
    from concurrent.futures import ProcessPoolExecutor

    groups = _seed_major_groups(jobs, workers)
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_grid_worker,
        initargs=(dataset, settings, jobs),
    ) as pool:
        placed = dict(zip(sum(groups, []), sum(pool.map(_worker_group, groups), [])))
    return [placed[j] for j in range(len(jobs))]


def run_config_grid(config: RunConfig, out_dir: str):
    """Run the strategy x seed grid; returns (reports, diverged strategy/seed pairs).

    Runs may go to worker processes (see _run_jobs). Each job's warnings are
    issued again here, and its error raised here, in strategy x seed order,
    so the caller sees what running the jobs one after another on this
    process would show; the output files are the same on any number of
    workers.
    """
    os.makedirs(out_dir, exist_ok=True)
    dataset = dataset_from_config(config)
    jobs = [(strategy, seed) for strategy in config.strategies for seed in config.seeds]
    outcomes = _run_jobs(dataset, run_settings(config, dataset.n), jobs)
    reports = []
    diverged = []
    csv_rows = ["cycle,frac,acc,info,div,strategy,seed"]
    for (strategy, seed), (outcome, caught) in zip(jobs, outcomes):
        for warning in caught:
            _warn_again(*warning)
        path = os.path.join(out_dir, f"{strategy}-seed{seed}.json")
        if isinstance(outcome, DivergenceError):
            diverged.append((strategy, seed, str(outcome)))
            stub = {"strategy": strategy, "seed": seed, "error": str(outcome), "records": []}
            atomic_write_text(path, json.dumps(stub, sort_keys=True, indent=2) + "\n")
            continue
        if isinstance(outcome, tuple):  # a worker's error, with its formatted traceback
            raise outcome[0] from _WorkerTraceback(outcome[1])
        if isinstance(outcome, Exception):
            raise outcome
        reports.append(outcome)
        atomic_write_text(path, outcome.to_json() + "\n")
        for rec in outcome.records:
            info = "" if rec.informativeness is None else repr(rec.informativeness)
            div = "" if rec.diversity is None else repr(rec.diversity)
            csv_rows.append(
                f"{rec.cycle},{rec.labeled_fraction!r},{rec.test_accuracy!r},"
                f"{info},{div},{strategy},{seed}"
            )
    atomic_write_text(os.path.join(out_dir, "aggregate.csv"), "\n".join(csv_rows) + "\n")
    return reports, diverged


def cmd_simulate(args) -> int:
    config = parse_run_config(args.config)
    reports, diverged = run_config_grid(config, args.out)
    print(
        f"wrote {len(reports)} reports and aggregate.csv -> {args.out}", file=sys.stderr
    )
    if diverged:
        for strategy, seed, msg in diverged:
            print(f"diverged: {strategy} seed {seed}: {msg}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


class _NoteGiven(argparse.Action):
    """Store the value and add the flag's dest to args.given: a run that ignores it refuses it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacs", description="Density-aware core-set selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by the two commands that take an embedding pool.
    pool_flags = argparse.ArgumentParser(add_help=False)
    pool_flags.add_argument("--embeddings", required=True)
    pool_flags.add_argument(
        "--buckets", type=int, default=AcquisitionConfig.n_buckets, action=_NoteGiven
    )
    pool_flags.add_argument("--seed", type=int, default=0, action=_NoteGiven)
    pool_flags.add_argument("--out", required=True)

    p_select = sub.add_parser(
        "select", parents=[pool_flags], help="pick samples from an embedding pool"
    )
    p_select.add_argument("--labeled", help="file of labeled indices, one per line")
    p_select.add_argument("--budget", type=int, required=True)
    p_select.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_DACS)
    p_select.add_argument(
        "--scores", action=_NoteGiven, help="per-sample uncertainty file (combined, entropy-top-b)"
    )
    p_select.add_argument(
        "--breaks", type=int, default=AcquisitionConfig.n_breaks, action=_NoteGiven
    )
    p_select.add_argument(
        "--temperature", type=float, default=AcquisitionConfig.temperature, action=_NoteGiven
    )
    p_select.set_defaults(func=cmd_select)

    p_density = sub.add_parser("density", parents=[pool_flags], help="estimate per-sample density")
    p_density.add_argument("--mode", choices=["exact", "lsh"], required=True)
    p_density.add_argument(
        "--knn", type=int, default=20, action=_NoteGiven, help="--mode exact or --compare only"
    )
    p_density.add_argument(
        "--metric", choices=[METRIC_EUCLIDEAN, METRIC_COSINE], default=METRIC_EUCLIDEAN,
        action=_NoteGiven, help="--mode exact only",
    )
    p_density.add_argument(
        "--compare", action="store_true",
        help="--mode lsh only (refused with --mode exact): also run the exact oracle and"
        f" report rank agreement on stderr (pools of at most {COMPARE_MAX_ROWS} rows)",
    )
    p_density.set_defaults(func=cmd_density)

    p_sim = sub.add_parser("simulate", help="run the acquisition-strategy grid")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
