"""Compare mode: diff two result files per workload and metric.

Each file holds the JSON lines that ``run.py --out`` appends, one per run. For
every workload and metric the table shows each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and a verdict against the bound that
BENCHMARK.json fixes for the metric:

- ``worse``: the new median is worse than the base median by more than the bound.
- ``better``: the new median is better by more than the base runs' own
  quartile spread.
- ``unresolved``: either side's quartile spread is wider than the bound, and
  not every new run is better than every base run.
- ``same``: none of the above.

Per-layer metrics have no bound; their rows show the figures and ``-``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound) -> str:
    """Classify new against base for one metric; see the module docstring."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    if bmed == 0:
        return "unresolved"
    worse_by = sign * (nmed - bmed) / abs(bmed)
    base_spread = (bq3 - bq1) / abs(bmed)
    spread = max(base_spread, (nq3 - nq1) / abs(bmed))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > base_spread:
        return "better"
    return "same"


def load(path: str) -> dict:
    """{(workload, metric): [values]} over every run recorded in the file."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def compare_files(bench: dict, base_path: str, new_path: str) -> str:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(base_path), load(new_path)
    rows = [
        f"{'workload':<18} {'metric':<36} {'n':>5} {'base q1/med/q3':>32} "
        f"{'new q1/med/q3':>32} {'change':>8}  verdict"
    ]
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name, {})
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
        v = verdict(b, n, spec.get("better", "lower"), spec.get("bound"))
        rows.append(
            f"{workload:<18} {name:<36} {len(b):>2}/{len(n):<2} "
            f"{'/'.join(f'{q:.4g}' for q in bq):>32} {'/'.join(f'{q:.4g}' for q in nq):>32} "
            f"{change:>+8.1%}  {v}"
        )
    return "\n".join(rows)
