"""Golden gate: every committed suite reproduces its outputs under out/.

A fresh grid must write aggregate.csv byte for byte and every
<strategy>-seed<k>.json report equal to the committed one apart from its
wall-clock `timings` key. Any drift in density, Jenks breaks, budget
allocation, greedy k-center, the model or the simulator changes at least one
accuracy or pick in these files.
"""

import json
from pathlib import Path

import pytest

from dacs.cli import run_config_grid
from dacs.config import parse_run_config

ROOT = Path(__file__).resolve().parents[1]


def _report_without_timings(path: Path) -> str:
    report = json.loads(path.read_text())
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("suite", ["ablation", "mixture", "near_duplicate"])
def test_suite_matches_committed_outputs(suite, tmp_path):
    config = parse_run_config(ROOT / "configs" / f"{suite}.cfg")
    _, diverged = run_config_grid(config, str(tmp_path))
    assert diverged == []
    golden = ROOT / "out" / suite
    assert (tmp_path / "aggregate.csv").read_bytes() == (golden / "aggregate.csv").read_bytes()
    reports = sorted(p.name for p in golden.glob("*-seed*.json"))
    assert sorted(p.name for p in tmp_path.glob("*-seed*.json")) == reports
    for name in reports:
        assert _report_without_timings(tmp_path / name) == _report_without_timings(golden / name), name
