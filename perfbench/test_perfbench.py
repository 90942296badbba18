"""Tests of the benchmark harness itself: span arithmetic, counts, wrapping, compare.

Run with:  python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, kcenter_counts, pairs_scored, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping: covered once,
    # 4 s) and [8, 12] (clipped to [8, 10], 2 s); self = 10 - 6 = 4.
    # [2, 5] has one child [3, 4]: self = 3 - 1 = 2.
    spans = [
        Span("root", "cli", -1, 0.0, 10.0),
        Span("a", "density", 0, 1.0, 3.0),
        Span("b", "partition", 0, 2.0, 5.0),
        Span("c", "selection", 0, 8.0, 12.0),
        Span("d", "core", 2, 3.0, 4.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])


def test_self_times_of_nested_spans_sum_to_the_root():
    clock = iter(range(100)).__next__
    tr = Tracer(clock=clock)
    root = tr.open("cli.main", "cli")  # t=0
    a = tr.open("selection.dacs_select", "selection")  # t=1
    b = tr.open("density.lsh_density", "density")  # t=2
    tr.close(b)  # t=3
    c = tr.open("selection.kcenter_greedy", "selection")  # t=4
    tr.close(c)  # t=5
    tr.close(a)  # t=6
    tr.close(root)  # t=7
    m = tr.metrics()
    assert m["trace.op_s"] == 7
    assert m["density.self_s"] == 1
    assert m["selection.kcenter_greedy_s"] == 1
    assert m["selection.select_self_s"] == 3  # 5 s span minus two 1 s children
    assert m["selection.self_s"] == 4
    assert m["cli.main_self_s"] == 2
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "cli")
    assert layer_self + m["cli.main_self_s"] + m["trace.count_s"] == m["trace.op_s"]


def test_pairs_scored_on_a_hand_worked_case():
    # n=10, chunk 4: chunks [0,4), [4,8), [8,10).
    # with-previous widths 4, 8, 6 -> 4*4 + 4*8 + 2*6 = 60.
    assert pairs_scored(10, 4, "with-previous") == 60
    # own chunk only: 4*4 + 4*4 + 2*2 = 36.
    assert pairs_scored(10, 4, "own-chunk-only") == 36
    # grows about as 2 n^2 / buckets
    n, k = 100_000, 100
    assert pairs_scored(n, n // k, "with-previous") == pytest.approx(2 * n * n / k, rel=0.01)


def test_kcenter_counts_on_a_hand_worked_case():
    # 3 picks from 5 candidates against 4 reference rows: 15 rows gathered;
    # the max-similarity temporary is 5 x 4 float64 = 160 bytes.
    assert kcenter_counts(3, 5, 4) == (15, 160)
    # the reference is read in blocks of 2048 rows
    assert kcenter_counts(1, 10, 5000) == (10, 10 * 2048 * 8)
    assert kcenter_counts(0, 10, 5000) == (0, 0)


def _unit_rows(n, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_wrappers_are_installed_where_callers_look_them_up():
    import dacs.cli
    import dacs.formats
    import dacs.partition
    import dacs.selection
    import dacs.simulate
    from dacs.core import AcquisitionConfig, FeatureMatrix, Rng, make_pool

    original = dacs.partition.jenks_breaks
    tr = Tracer()
    assert tr.install() == []
    try:
        assert dacs.selection.jenks_breaks is not original
        assert dacs.simulate.train is not dacs.simulate.train.__wrapped__
        assert dacs.cli.read_embeddings.__wrapped__ is dacs.formats.read_embeddings.__wrapped__
        x = FeatureMatrix(_unit_rows(400, 8, 0), unit_norm=True)
        pool = make_pool(400, [0, 1, 2, 3])
        dacs.selection.dacs_select(pool, x, AcquisitionConfig(budget=20, n_buckets=10), Rng(0))
    finally:
        tr.uninstall()
    assert dacs.selection.jenks_breaks is original
    assert not hasattr(dacs.cli.read_embeddings, "__wrapped__")
    m = tr.metrics()
    assert m["partition.jenks_calls"] == 1
    assert m["partition.jenks_distinct_max"] == m["partition.jenks_distinct_sum"] == 396
    assert m["density.calls"] == 1
    assert m["density.pairs_scored"] == pairs_scored(396, 396 // 10, "with-previous")
    assert m["selection.kcenter_picks"] == 20
    # each class's greedy gathers n_pick x |class| rows
    names = [s.name for s in tr.spans]
    assert names.count("selection.kcenter_greedy") == m["selection.kcenter_calls"] == 4
    assert m["selection.kcenter_rows_gathered"] > 0
    assert m["selection.kcenter_bytes_gathered"] == m["selection.kcenter_rows_gathered"] * 8 * 8
    # spans nest under the selection entry point
    parents = {tr.spans[s.parent].name for s in tr.spans if s.name == "partition.jenks_breaks"}
    assert parents == {"selection.dacs_select"}


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "better"),
        ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "same"),
        ([1.0, 1.5, 0.6, 1.0], [1.1, 1.6, 0.7, 1.1], "lower", "unresolved"),
        ([1.0, 1.5, 0.6, 1.0], [0.3, 0.4, 0.35, 0.3], "lower", "better"),
        ([0.6, 0.61, 0.59, 0.6], [0.5, 0.51, 0.49, 0.5], "higher", "worse"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.1) == expected


def test_compare_files_reads_run_records(tmp_path):
    bench = {"end_to_end": [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}],
             "per_layer": []}
    for name, values in (("base", [1.0, 1.0, 1.01]), ("new", [1.3, 1.31, 1.3])):
        with open(tmp_path / name, "w") as fh:
            for v in values:
                rec = {"workload": "w", "result": {"metrics": {"op_s": {"value": v, "unit": "s"}}}}
                fh.write(json.dumps(rec) + "\n")
    table = compare.compare_files(bench, str(tmp_path / "base"), str(tmp_path / "new"))
    assert table.splitlines()[1].split()[-1] == "worse"


def test_reference_kernel_does_fixed_work():
    # Same inputs on every pass, so every pass does the same work; the result
    # is the largest dot product between two standard-normal 16-D rows.
    first = reference.reference_kernel()
    assert first == reference.reference_kernel()
    assert 0 < first < 200
    samples = reference.time_reference()
    assert len(samples) == reference.PASSES_PER_OP and min(samples) > 0
