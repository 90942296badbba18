"""Plain-text run configuration, and the one path from user settings to the engine.

One `key = value` pair per line, `#` comments, unknown keys rejected. A key
left out takes the engine's own default. parse_run_config refuses every value
a grid run would refuse, with the engine's own checks: it draws the dataset
the config describes, whose generators check their arguments, and checks
each run on that dataset's shape. The DACS_SEED environment variable, when
set, overrides the configured run seeds with that single seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .core import AcquisitionConfig, Rng
from .formats import ParseError
from .model import ModelConfig
from .simulate import (
    GENERATOR_MIXTURE,
    GENERATOR_NEAR_DUPLICATE,
    TEST_FRACTION,
    check_run,
    gen_gaussian_mixture,
    gen_near_duplicate,
    held_out_rows,
)

SEED_ENV_VAR = "DACS_SEED"


@dataclass
class RunConfig:
    # dataset
    dataset: str = GENERATOR_MIXTURE
    classes: int = 5
    per_class: int = 1200
    dim: int = 32
    spread: float = 1.0
    separation: float = 1.4
    replication: int = 2
    noise_sigma: float = 0.1
    data_seed: int = 7
    # pool schedule
    test_fraction: float = TEST_FRACTION
    init_fraction: float = 0.02
    budget_fraction: float = 0.02
    cycles: int = 8
    strategies: list = field(default_factory=lambda: ["random", "coreset", "dacs"])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    # acquisition
    buckets: int = AcquisitionConfig.n_buckets
    breaks: int = AcquisitionConfig.n_breaks
    temperature: float = AcquisitionConfig.temperature
    # learner
    reduced_dim: int = ModelConfig.reduced_dim
    epochs: int = ModelConfig.epochs
    batch_size: int = ModelConfig.batch_size
    learning_rate: float = ModelConfig.learning_rate


def env_seed() -> int | None:
    """The DACS_SEED environment variable as an integer, or None when it is unset."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from exc


def _parse_str_list(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def parse_run_config(path) -> RunConfig:
    """Parse and validate a key = value config file against the schema."""
    config = RunConfig()
    schema = {f.name: f.type for f in fields(RunConfig)}
    seen = set()
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"line {ln}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in schema:
                raise ParseError(f"line {ln}: unknown key {key!r}")
            if key in seen:
                raise ParseError(f"line {ln}: duplicate key {key!r}")
            seen.add(key)
            try:
                if key == "strategies":
                    value = _parse_str_list(raw)
                elif key == "seeds":
                    value = [int(tok) for tok in _parse_str_list(raw)]
                else:  # int, float or str, as the key's default
                    value = type(getattr(config, key))(raw)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad value for {key!r}: {exc}") from exc
            if isinstance(value, list) and len(set(value)) < len(value):
                twice = next(v for i, v in enumerate(value) if v in value[:i])
                raise ParseError(f"line {ln}: {key} lists {twice!r} twice")
            setattr(config, key, value)
    seed = env_seed()
    if seed is not None:
        config.seeds = [seed]
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.dataset not in (GENERATOR_MIXTURE, GENERATOR_NEAR_DUPLICATE):
        raise ParseError(f"unknown dataset {config.dataset!r}")
    if not config.strategies:
        raise ParseError("strategies must be non-empty")
    if not config.seeds:
        raise ParseError("seeds must be non-empty")
    for key in ("init_fraction", "budget_fraction"):
        if not 0 < getattr(config, key) < 1:
            raise ParseError(f"{key} must lie in (0, 1)")
    try:
        features = dataset_from_config(config).features
        settings = run_settings(config, features.n)
        for strategy in config.strategies:
            check_run(features.n, features.d, strategy, **settings)
    except ValueError as exc:
        raise ParseError(f"bad engine setting: {exc}") from exc


def dataset_from_config(config: RunConfig):
    """The synthetic dataset the config describes, drawn from its data_seed."""
    data_rng = Rng(config.data_seed)
    base = gen_gaussian_mixture(
        config.classes, config.per_class, config.dim, config.spread, config.separation, data_rng
    )
    if config.dataset == GENERATOR_NEAR_DUPLICATE:
        return gen_near_duplicate(base, config.replication, config.noise_sigma, data_rng)
    return base


def acquisition_config(settings, budget: int) -> AcquisitionConfig:
    """AcquisitionConfig from a RunConfig or `dacs select` arguments."""
    return AcquisitionConfig(
        budget=budget,
        n_buckets=settings.buckets,
        n_breaks=settings.breaks,
        temperature=settings.temperature,
    )


def run_settings(config: RunConfig, n_rows: int) -> dict:
    """run_al's keyword arguments other than the dataset, strategy and rng, for n_rows rows."""
    n_train = n_rows - held_out_rows(n_rows, config.test_fraction)
    budget = max(1, int(round(config.budget_fraction * n_train)))
    model_config = ModelConfig(
        n_classes=config.classes,
        reduced_dim=config.reduced_dim,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
    )
    return {
        "acq_config": acquisition_config(config, budget),
        "model_config": model_config,
        "cycles": config.cycles,
        "init_labeled": max(1, int(round(config.init_fraction * n_train))),
        "test_fraction": config.test_fraction,
    }
