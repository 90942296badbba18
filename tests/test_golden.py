"""Golden gate: a fresh near_duplicate grid reproduces the committed aggregate byte for byte.

Any drift in density, Jenks breaks, budget allocation, greedy k-center, the
model or the simulator changes at least one accuracy in this file.
"""

from pathlib import Path

from dacs.cli import run_config_grid
from dacs.config import SEED_ENV_VAR, parse_run_config

ROOT = Path(__file__).resolve().parents[1]


def test_near_duplicate_grid_matches_committed_aggregate(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    config = parse_run_config(ROOT / "configs" / "near_duplicate.cfg")
    _, diverged = run_config_grid(config, str(tmp_path))
    assert diverged == []
    golden = (ROOT / "out" / "near_duplicate" / "aggregate.csv").read_bytes()
    assert (tmp_path / "aggregate.csv").read_bytes() == golden
