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
from dataclasses import asdict

from .config import SEED_ENV_VAR, RunConfig, parse_run_config
from .core import (
    REFERENCE_GLOBAL,
    WINDOW_WITH_PREVIOUS,
    AcquisitionConfig,
    DivergenceError,
    FeatureMatrix,
    Rng,
    make_pool,
    normalize_rows,
)
from .density import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    exact_knn_density,
    lsh_assign,
    lsh_density,
)
from .formats import (
    FORMAT_BINARY,
    FORMAT_CSV,
    ParseError,
    atomic_write_text,
    read_embeddings,
    read_embeddings_csv,
    read_index_file,
    read_scores_file,
)
from .model import ModelConfig
from .selection import SCORED_STRATEGIES, STRATEGIES, STRATEGY_DACS, UncertaintyScores, select
from .simulate import (
    GENERATOR_NEAR_DUPLICATE,
    gen_gaussian_mixture,
    gen_near_duplicate,
    run_al,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3

# Largest pool `density --compare` accepts: its exact k-NN oracle is quadratic
# in the row count.
COMPARE_MAX_ROWS = 20_000


def _load_embeddings(path: str, fmt: str) -> FeatureMatrix:
    if fmt == FORMAT_CSV:
        return read_embeddings_csv(path)
    return read_embeddings(path)


def _resolve_seed(cli_seed) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"{SEED_ENV_VAR}={env!r} is not an integer") from exc
    return 0


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_select(args) -> int:
    embeddings = _load_embeddings(args.embeddings, args.format)
    if not embeddings.unit_norm:
        print("note: input rows are not flagged unit-norm; normalizing", file=sys.stderr)
        embeddings = normalize_rows(embeddings)
    labeled = read_index_file(args.labeled) if args.labeled else []
    pool = make_pool(embeddings.n, labeled)
    if args.budget < 1:
        raise ParseError("budget must be positive")
    if args.budget > pool.unlabeled.size:
        raise ParseError(
            f"budget {args.budget} exceeds unlabeled pool size {pool.unlabeled.size}"
        )
    config = AcquisitionConfig(
        budget=args.budget,
        n_buckets=args.buckets,
        n_breaks=args.breaks,
        temperature=args.temperature,
        expand_factor=args.expand_factor,
        window=args.window,
        reference=args.reference,
    )
    rng = Rng(_resolve_seed(args.seed))
    scores = None
    if args.strategy in SCORED_STRATEGIES:
        if not args.scores:
            raise ParseError(f"strategy {args.strategy!r} requires --scores")
        raw = read_scores_file(args.scores)
        if raw.size != embeddings.n:
            raise ParseError(
                f"scores file has {raw.size} entries but embeddings have {embeddings.n} rows"
            )
        scores = UncertaintyScores(scores=raw)
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
        "timings": {"select_seconds": elapsed},
    }
    atomic_write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"selected {len(result.selected)} samples -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_density(args) -> int:
    embeddings = _load_embeddings(args.embeddings, args.format)
    if args.mode == "lsh" and args.compare and embeddings.n > COMPARE_MAX_ROWS:
        raise ParseError(
            f"--compare runs the quadratic exact k-NN oracle and accepts at most "
            f"{COMPARE_MAX_ROWS} rows; the pool has {embeddings.n}"
        )
    if args.mode == "exact":
        profile = exact_knn_density(embeddings, args.knn, metric=args.metric)
    else:
        if not embeddings.unit_norm:
            print("note: input rows are not flagged unit-norm; normalizing", file=sys.stderr)
            embeddings = normalize_rows(embeddings)
        rng = Rng(_resolve_seed(args.seed))
        assignment = lsh_assign(embeddings, args.buckets, rng)
        profile = lsh_density(embeddings, assignment)
        if args.compare:
            from scipy.stats import spearmanr

            exact = exact_knn_density(embeddings, args.knn, metric=METRIC_COSINE)
            rho = spearmanr(profile.values, -exact.values).statistic
            print(
                f"spearman(fast density, negated exact {args.knn}-nn) = {rho:.4f}",
                file=sys.stderr,
            )
    lines = ["index,density,convention"]
    for i, v in zip(profile.indices, profile.values):
        lines.append(f"{int(i)},{float(v)!r},{profile.convention.value}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {profile.values.size} densities -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _dataset_from_config(config: RunConfig):
    data_rng = Rng(config.data_seed)
    base = gen_gaussian_mixture(
        config.classes, config.per_class, config.dim, config.spread, config.separation, data_rng
    )
    if config.dataset == GENERATOR_NEAR_DUPLICATE:
        return gen_near_duplicate(base, config.replication, config.noise_sigma, data_rng)
    return base


def run_config_grid(config: RunConfig, out_dir: str):
    """Run the strategy x seed grid; returns (reports, diverged strategy/seed pairs)."""
    os.makedirs(out_dir, exist_ok=True)
    dataset = _dataset_from_config(config)
    n_train = dataset.n - int(round(config.test_fraction * dataset.n))
    init_labeled = max(1, int(round(config.init_fraction * n_train)))
    budget = max(1, int(round(config.budget_fraction * n_train)))
    acq = AcquisitionConfig(
        budget=budget,
        n_buckets=config.buckets,
        n_breaks=config.breaks,
        temperature=config.temperature,
        expand_factor=config.expand_factor,
        window=config.window,
        reference=config.reference,
    )
    model_config = ModelConfig(
        n_classes=config.classes,
        reduced_dim=config.reduced_dim,
        hidden=config.hidden if config.hidden > 0 else None,
        lambda_aux=config.lambda_aux,
        epochs=config.epochs,
        stop_epoch=config.stop_epoch if config.stop_epoch >= 0 else None,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        lr_decay=config.lr_decay,
    )
    reports = []
    diverged = []
    csv_rows = ["cycle,frac,acc,info,div,strategy,seed"]
    for strategy in config.strategies:
        for seed in config.seeds:
            try:
                report = run_al(
                    dataset,
                    strategy,
                    acq,
                    model_config,
                    config.cycles,
                    init_labeled,
                    Rng(seed),
                    test_fraction=config.test_fraction,
                )
            except DivergenceError as exc:
                diverged.append((strategy, seed, str(exc)))
                stub = {
                    "strategy": strategy,
                    "seed": seed,
                    "error": str(exc),
                    "records": [],
                }
                atomic_write_text(
                    os.path.join(out_dir, f"{strategy}-seed{seed}.json"),
                    json.dumps(stub, sort_keys=True, indent=2) + "\n",
                )
                continue
            reports.append(report)
            atomic_write_text(
                os.path.join(out_dir, f"{strategy}-seed{seed}.json"),
                report.to_json() + "\n",
            )
            for rec in report.records:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacs", description="Density-aware core-set selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="pick samples from an embedding pool")
    p_select.add_argument("--embeddings", required=True)
    p_select.add_argument("--format", choices=[FORMAT_BINARY, FORMAT_CSV], default=FORMAT_BINARY)
    p_select.add_argument("--labeled", help="file of labeled indices, one per line")
    p_select.add_argument("--budget", type=int, required=True)
    p_select.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_DACS)
    p_select.add_argument("--scores", help="per-sample uncertainty file (combined, entropy-top-b)")
    p_select.add_argument("--buckets", type=int, default=100)
    p_select.add_argument("--breaks", type=int, default=4)
    p_select.add_argument("--temperature", type=float, default=0.25)
    p_select.add_argument("--expand-factor", type=float, default=2.0)
    p_select.add_argument("--window", default=WINDOW_WITH_PREVIOUS)
    p_select.add_argument("--reference", default=REFERENCE_GLOBAL)
    p_select.add_argument("--seed", type=int, default=None)
    p_select.add_argument("--out", required=True)
    p_select.set_defaults(func=cmd_select)

    p_density = sub.add_parser("density", help="estimate per-sample density")
    p_density.add_argument("--embeddings", required=True)
    p_density.add_argument("--format", choices=[FORMAT_BINARY, FORMAT_CSV], default=FORMAT_BINARY)
    p_density.add_argument("--mode", choices=["exact", "lsh"], required=True)
    p_density.add_argument("--knn", type=int, default=20)
    p_density.add_argument("--metric", choices=[METRIC_EUCLIDEAN, METRIC_COSINE], default=METRIC_EUCLIDEAN)
    p_density.add_argument("--buckets", type=int, default=100)
    p_density.add_argument("--seed", type=int, default=None)
    p_density.add_argument(
        "--compare", action="store_true",
        help="with --mode lsh: also run the exact oracle and report rank agreement on stderr"
        f" (pools of at most {COMPARE_MAX_ROWS} rows)",
    )
    p_density.add_argument("--out", required=True)
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
