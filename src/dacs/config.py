"""Plain-text run configuration for the simulation command.

One `key = value` pair per line, `#` comments, unknown keys rejected; a value
AcquisitionConfig or ModelConfig would refuse is refused at parse time.
Defaults follow the engine's standard operating point (reduced_dim 16, 100
buckets, 4 density classes, temperature 0.25). The DACS_SEED environment variable, when
set, overrides the configured run seeds with that single seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .core import REFERENCE_GLOBAL, WINDOW_WITH_PREVIOUS, AcquisitionConfig
from .formats import ParseError
from .model import ModelConfig
from .selection import STRATEGIES
from .simulate import GENERATOR_MIXTURE, GENERATOR_NEAR_DUPLICATE

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
    test_fraction: float = 0.2
    init_fraction: float = 0.02
    budget_fraction: float = 0.02
    cycles: int = 8
    strategies: list = field(default_factory=lambda: ["random", "coreset", "dacs"])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    # acquisition
    buckets: int = 100
    breaks: int = 4
    temperature: float = 0.25
    expand_factor: float = 2.0
    window: str = WINDOW_WITH_PREVIOUS
    reference: str = REFERENCE_GLOBAL
    # learner
    reduced_dim: int = 16
    hidden: int = 0  # 0 = no shared trunk
    lambda_aux: float = 1.0
    epochs: int = 24
    stop_epoch: int = -1  # -1 = 60% of epochs
    batch_size: int = 64
    learning_rate: float = 0.32
    lr_decay: bool = True


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{raw!r} is not a boolean")


def _parse_int_list(raw: str) -> list:
    return [int(tok.strip()) for tok in raw.split(",") if tok.strip()]


def _parse_str_list(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


_CASTERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
}


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
                    value = _parse_int_list(raw)
                else:
                    current = getattr(config, key)
                    value = _CASTERS[type(current)](raw)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad value for {key!r}: {exc}") from exc
            setattr(config, key, value)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            config.seeds = [int(env_seed)]
        except ValueError as exc:
            raise ParseError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.dataset not in (GENERATOR_MIXTURE, GENERATOR_NEAR_DUPLICATE):
        raise ParseError(f"unknown dataset {config.dataset!r}")
    for strategy in config.strategies:
        if strategy not in STRATEGIES:
            raise ParseError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if not config.strategies:
        raise ParseError("strategies must be non-empty")
    if not config.seeds:
        raise ParseError("seeds must be non-empty")
    if not 0 < config.test_fraction < 1:
        raise ParseError("test_fraction must lie in (0, 1)")
    if not 0 < config.init_fraction < 1:
        raise ParseError("init_fraction must lie in (0, 1)")
    if not 0 < config.budget_fraction < 1:
        raise ParseError("budget_fraction must lie in (0, 1)")
    if config.cycles < 0:
        raise ParseError("cycles must be non-negative")
    try:
        # The budget and initial label count are at least 1 for any pool
        # size, so an empty pool checks every value before data exists.
        engine_configs(config, 0)
    except ValueError as exc:
        raise ParseError(f"bad engine setting: {exc}") from exc


def engine_configs(config: RunConfig, n_rows: int):
    """(AcquisitionConfig, ModelConfig, initial labeled count) for a dataset of n_rows.

    The engine's classes check their own values, so a config that parses
    builds them without error.
    """
    n_train = n_rows - int(round(config.test_fraction * n_rows))
    acq = AcquisitionConfig(
        budget=max(1, int(round(config.budget_fraction * n_train))),
        n_buckets=config.buckets,
        n_breaks=config.breaks,
        temperature=config.temperature,
        expand_factor=config.expand_factor,
        window=config.window,
        reference=config.reference,
    )
    model = ModelConfig(
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
    return acq, model, max(1, int(round(config.init_fraction * n_train)))
