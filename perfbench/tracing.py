"""Per-layer spans and counters for the traced benchmark run.

The traced run replaces the public functions of each dacs layer with a
wrapper that records a span (name, layer, parent, start, end) and, for a few
functions, work counts derived from the call's arguments and result. Modules
import these functions by name (``from .partition import jenks_breaks``), so
a wrapper is installed under every module attribute that holds the original
function object, not only in the defining module. Counting runs after the
wrapped call returns, inside a ``trace.count`` span of its own, so it is
charged to the tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Block size of selection._max_similarity; bounds its largest temporary.
MAXSIM_BLOCK = 2048

SELECT_ENTRY_POINTS = (
    "selection.dacs_select",
    "selection.coreset_select",
    "selection.random_select",
    "selection.region_only_select",
    "selection.expand_and_squeeze",
)

LAYERS = ("core", "density", "partition", "selection", "model", "simulate", "formats", "cli")


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = math.nan


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[i]):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out


def pairs_scored(n: int, chunk_size: int, window: str) -> int:
    """Similarity pairs lsh_density scores: sum over chunks of rows x window width."""
    total = 0
    for s in range(0, n, chunk_size):
        e = min(n, s + chunk_size)
        lo = s if (window == "own-chunk-only" or s == 0) else s - chunk_size
        total += (e - s) * (e - lo)
    return total


def kcenter_counts(n_pick: int, n_cand: int, n_ref: int):
    """(rows gathered, peak max-similarity temporary in bytes) of one kcenter_greedy call."""
    rows = n_pick * n_cand
    peak = n_cand * min(MAXSIM_BLOCK, n_ref) * 8 if n_pick else 0
    return rows, peak


# Counters: each takes (tracer, bound arguments, result).


def _count_assign(tr, a, result):
    k = result.n_buckets
    occupancy = np.bincount(result.bucket_ids, minlength=k)
    tr.peak("density.bucket_skew", occupancy.max() / (result.bucket_ids.size / k))


def _count_density(tr, a, result):
    tr.add("density.calls", 1)
    n = a["x"].n
    chunk = result.params.get("chunk_size", a["assignment"].chunk_size)
    tr.add("density.pairs_scored", pairs_scored(n, chunk, a["window"]))


def _count_jenks(tr, a, result):
    distinct = np.unique(np.asarray(a["values"])).size
    tr.add("partition.jenks_calls", 1)
    tr.add("partition.jenks_distinct_sum", distinct)
    tr.peak("partition.jenks_distinct_max", distinct)


def _count_kcenter(tr, a, result):
    n_pick = a["n_pick"]
    n_cand = np.unique(np.asarray(a["candidates"], np.int64)).size
    rows, peak = kcenter_counts(n_pick, n_cand, len(a["reference"]))
    tr.add("selection.kcenter_calls", 1)
    tr.add("selection.kcenter_picks", n_pick)
    tr.add("selection.kcenter_rows_gathered", rows)
    tr.add("selection.kcenter_bytes_gathered", rows * a["features"].d * 8)
    tr.peak("selection.maxsim_peak_bytes", peak)


def _count_train(tr, a, result):
    cfg = a["model"].config
    tr.add("model.train_calls", 1)
    tr.add("model.train_batches", cfg.epochs * -(-len(a["labeled_indices"]) // cfg.batch_size))


def _count_infer(tr, a, result):
    tr.add("model.infer_rows", a["features"].n)


def _count_read(tr, a, result):
    tr.add("formats.read_bytes", os.path.getsize(a["path"]))


def _count_write(tr, a, result):
    tr.add("formats.bytes_written", len(a["text"].encode()))


# (layer, function, counter) for every wrapped public function. config is not
# here: parse_run_config runs during set-up only.
TARGETS = (
    ("core", "normalize_rows", None),
    ("core", "make_pool", None),
    ("core", "commit_acquisition", None),
    ("density", "lsh_assign", _count_assign),
    ("density", "lsh_density", _count_density),
    ("partition", "jenks_breaks", _count_jenks),
    ("partition", "allocate_budget", None),
    ("selection", "kcenter_greedy", _count_kcenter),
    ("selection", "dacs_select", None),
    ("selection", "coreset_select", None),
    ("selection", "random_select", None),
    ("selection", "region_only_select", None),
    ("selection", "expand_and_squeeze", None),
    ("model", "init_model", None),
    ("model", "train", _count_train),
    ("model", "infer", _count_infer),
    ("model", "uncertainty", None),
    ("simulate", "run_al", None),
    ("simulate", "gen_gaussian_mixture", None),
    ("simulate", "gen_near_duplicate", None),
    ("simulate", "subset_metrics", None),
    ("simulate", "near_duplicate_fraction", None),
    ("simulate", "density_uncertainty_correlation", None),
    ("formats", "read_embeddings", _count_read),
    ("formats", "read_embeddings_csv", _count_read),
    ("formats", "read_index_file", None),
    ("formats", "read_scores_file", None),
    ("formats", "atomic_write_text", _count_write),
    ("cli", "main", None),
    ("cli", "run_config_grid", None),
)

COUNTERS = (
    "density.calls",
    "density.pairs_scored",
    "density.bucket_skew",
    "partition.jenks_calls",
    "partition.jenks_distinct_max",
    "partition.jenks_distinct_sum",
    "selection.kcenter_calls",
    "selection.kcenter_picks",
    "selection.kcenter_rows_gathered",
    "selection.kcenter_bytes_gathered",
    "selection.maxsim_peak_bytes",
    "model.train_calls",
    "model.train_batches",
    "model.infer_rows",
    "formats.read_bytes",
    "formats.bytes_written",
)


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, layer: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                index = self.open("trace.count", "trace")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, bound.arguments, result)
                finally:
                    self.close(index)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> list:
        """Wrap every target under each dacs module attribute bound to it; returns missing names."""
        missing = []
        found = []
        for layer, attr, counter in targets:
            fn = getattr(importlib.import_module(f"dacs.{layer}"), attr, None)
            if fn is None:
                missing.append(f"{layer}.{attr}")
            else:
                found.append((layer, attr, counter, fn))
        modules = [m for key, m in sys.modules.items() if key == "dacs" or key.startswith("dacs.")]
        for layer, attr, counter, fn in found:
            wrapper = self.wrap(f"{layer}.{attr}", layer, fn, counter)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    self._patches.append((module, key, fn))
                    setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the traced operation, keyed by metric name."""
        own = self_times(self.spans)
        incl = defaultdict(float)
        self_by_name = defaultdict(float)
        self_by_layer = defaultdict(float)
        rho = 0.0
        for span, st in zip(self.spans, own):
            dur = span.end - span.start
            incl[span.name] += dur
            self_by_name[span.name] += st
            self_by_layer[span.layer] += st
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            if span.layer == "density" and parent == "simulate.run_al":
                rho += dur
        roots = [s for s in self.spans if s.parent < 0 and s.layer != "trace"]
        out = {
            "density.lsh_assign_s": incl["density.lsh_assign"],
            "density.lsh_density_s": incl["density.lsh_density"],
            "partition.jenks_breaks_s": incl["partition.jenks_breaks"],
            "partition.allocate_budget_s": incl["partition.allocate_budget"],
            "selection.kcenter_greedy_s": incl["selection.kcenter_greedy"],
            "selection.select_self_s": sum(self_by_name[n] for n in SELECT_ENTRY_POINTS),
            "model.train_s": incl["model.train"],
            "model.infer_s": incl["model.infer"],
            "simulate.run_al_s": incl["simulate.run_al"],
            "simulate.run_al_self_s": self_by_name["simulate.run_al"],
            "simulate.subset_metrics_s": incl["simulate.subset_metrics"],
            "simulate.near_duplicate_fraction_s": incl["simulate.near_duplicate_fraction"],
            "simulate.rho_density_s": rho,
            "formats.read_embeddings_s": incl["formats.read_embeddings"],
            "formats.atomic_write_s": incl["formats.atomic_write_text"],
            "core.make_pool_s": incl["core.make_pool"],
            "core.commit_acquisition_s": incl["core.commit_acquisition"],
            "cli.main_self_s": self_by_layer["cli"],
            "trace.count_s": self_by_layer["trace"],
            "trace.op_s": sum(s.end - s.start for s in roots),
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self_by_layer[layer]
        out.update(self.counts)
        return out
