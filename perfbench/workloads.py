"""Benchmark workloads: input generation, one operation, and its output checks.

Each workload drives dacs only through a public entry point:
``dacs.cli.main(["select", ...])`` for the select workloads and
``dacs.cli.run_config_grid`` for the active-learning grid. The operation is
what the timed region covers; generating and writing inputs happens before.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool seeds fold onto this many pools, so that every pick set the benchmark
# can produce has a digest recorded in digests.json.
SEED_TABLE = 64
POOLS_PER_RUN = 8
DIGESTS_PATH = os.path.join(HERE, "digests.json")
SUITE_CONFIG = os.path.join(ROOT, "configs", "near_duplicate.cfg")
# The committed aggregate.csv of the near_duplicate grid; the copy under
# golden/ is byte-identical and serves checkouts that leave out/ out.
SUITE_GOLDENS = (
    os.path.join(HERE, "golden", "near_duplicate_aggregate.csv"),
    os.path.join(ROOT, "out", "near_duplicate", "aggregate.csv"),
)

_EMB_HEADER = struct.Struct("<8sQQB")  # magic, rows, cols, flags (bit 0 = unit-norm)


def pick_digest(selected) -> str:
    """sha256 of the selected indices in selection order."""
    return hashlib.sha256(",".join(str(int(i)) for i in selected).encode()).hexdigest()


def write_unit_pool(path: str, x: np.ndarray) -> None:
    """Write rows in the dacs binary embedding container, flagged unit-norm."""
    with open(path, "wb") as fh:
        fh.write(_EMB_HEADER.pack(b"DACSEMB1", x.shape[0], x.shape[1], 1))
        fh.write(x.astype("<f4").tobytes(order="C"))


def read_pool(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        _, n, d, _ = _EMB_HEADER.unpack(fh.read(_EMB_HEADER.size))
        return np.fromfile(fh, dtype="<f4").reshape(n, d).astype(np.float64)


def cover_radius(x: np.ndarray, labeled: np.ndarray, picked, block: int = 1024) -> float:
    """k-center objective: max over unlabeled rows of 1 - max cosine similarity to labeled and picked."""
    centers = x[np.concatenate([labeled, np.asarray(picked, np.int64)])]
    unlabeled = np.setdiff1d(np.arange(x.shape[0]), labeled)
    worst = -np.inf
    for start in range(0, unlabeled.size, block):
        sims = x[unlabeled[start : start + block]] @ centers.T
        worst = max(worst, float((1.0 - sims.max(axis=1)).max()))
    return worst


@dataclass
class Pool:
    seed: int
    embeddings: str
    labeled: str
    out: str


@dataclass
class SelectInputs:
    pools: list
    turn: int = 0  # operations started so far; operation i uses pools[i % len(pools)]

    @property
    def current(self) -> Pool:
        return self.pools[(self.turn - 1) % len(self.pools)]


class SelectWorkload:
    """One `dacs select --strategy dacs` call on a unit-sphere pool of n 16-D rows, 1% labeled.

    A run rotates over POOLS_PER_RUN pools, so that its figures do not hang
    on how one random rotation happened to bucket one pool.
    """

    budget = 1000
    buckets = 100
    breaks = 4
    dim = 16
    rotation = POOLS_PER_RUN

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n

    def write_pool(self, workdir: str, seed: int) -> Pool:
        seed = seed % SEED_TABLE
        gen = np.random.default_rng([seed, self.n])
        x = gen.standard_normal((self.n, self.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        labeled = np.sort(gen.choice(self.n, size=self.n // 100, replace=False))
        pool = Pool(
            seed=seed,
            embeddings=os.path.join(workdir, f"pool{seed}.emb"),
            labeled=os.path.join(workdir, f"labeled{seed}.txt"),
            out=os.path.join(workdir, "picks.json"),
        )
        write_unit_pool(pool.embeddings, x)
        with open(pool.labeled, "w") as fh:
            fh.write("\n".join(str(int(i)) for i in labeled) + "\n")
        return pool

    def prepare(self, workdir: str, seed: int) -> SelectInputs:
        return SelectInputs(
            [self.write_pool(workdir, seed * POOLS_PER_RUN + j) for j in range(POOLS_PER_RUN)]
        )

    def argv(self, pool: Pool) -> list:
        return [
            "select",
            "--embeddings", pool.embeddings,
            "--labeled", pool.labeled,
            "--budget", str(self.budget),
            "--strategy", "dacs",
            "--buckets", str(self.buckets),
            "--breaks", str(self.breaks),
            "--seed", str(pool.seed),
            "--out", pool.out,
        ]

    def reset(self, inputs: SelectInputs) -> None:
        inputs.turn += 1
        with contextlib.suppress(FileNotFoundError):
            os.unlink(inputs.current.out)

    def run(self, inputs: SelectInputs):
        import dacs.cli

        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = dacs.cli.main(self.argv(inputs.current))
        return code, stderr.getvalue()

    def check(self, inputs: SelectInputs, outcome) -> list:
        code, stderr = outcome
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        pool = inputs.current
        with open(pool.out) as fh:
            payload = json.load(fh)
        selected = payload["selected"]
        with open(pool.labeled) as fh:
            labeled = {int(line) for line in fh if line.strip()}
        errors = []
        if len(selected) != self.budget or len(set(selected)) != len(selected):
            errors.append(f"{len(set(selected))} distinct picks of {len(selected)}, budget {self.budget}")
        if any(i in labeled or not 0 <= i < self.n for i in selected):
            errors.append("a pick is labeled or out of range")
        budgets = sum(c["budget"] for c in payload["per_cluster"])
        if budgets != self.budget:
            errors.append(f"per-cluster budgets sum to {budgets}, budget {self.budget}")
        with open(DIGESTS_PATH) as fh:
            expected = json.load(fh)[self.name][str(pool.seed)]
        if pick_digest(selected) != expected:
            errors.append(f"pool {pool.seed}: selected indices differ from the recorded digest")
        return errors

    def quality(self, inputs: SelectInputs, outcome) -> dict:
        pool = inputs.current
        with open(pool.out) as fh:
            selected = json.load(fh)["selected"]
        with open(pool.labeled) as fh:
            labeled = np.array([int(line) for line in fh if line.strip()], np.int64)
        x = read_pool(pool.embeddings)
        return {"cover_radius": cover_radius(x, labeled, selected)}


@dataclass
class SuiteInputs:
    workdir: str
    config: object
    out: str = ""


class SuiteWorkload:
    """One run of the committed near_duplicate grid through run_config_grid."""

    rotation = 1

    def __init__(self, name: str):
        self.name = name

    def prepare(self, workdir: str, seed: int) -> SuiteInputs:
        # The grid and its golden output are fixed by the committed config;
        # the bench seed selects nothing here.
        from dacs.config import parse_run_config

        path = os.path.join(workdir, "near_duplicate.cfg")
        shutil.copyfile(SUITE_CONFIG, path)
        return SuiteInputs(workdir=workdir, config=parse_run_config(path))

    def reset(self, inputs: SuiteInputs) -> None:
        if inputs.out:
            shutil.rmtree(inputs.out)
        inputs.out = tempfile.mkdtemp(dir=inputs.workdir, prefix="grid-")

    def run(self, inputs: SuiteInputs):
        import dacs.cli

        return dacs.cli.run_config_grid(inputs.config, inputs.out)

    def check(self, inputs: SuiteInputs, outcome) -> list:
        _, diverged = outcome
        errors = [f"diverged: {strategy} seed {seed}: {msg}" for strategy, seed, msg in diverged]
        with open(os.path.join(inputs.out, "aggregate.csv"), "rb") as fh:
            fresh = fh.read()
        for golden in SUITE_GOLDENS:
            if os.path.exists(golden):
                with open(golden, "rb") as fh:
                    if fh.read() != fresh:
                        errors.append(f"aggregate.csv differs from {os.path.relpath(golden, ROOT)}")
        return errors

    def quality(self, inputs: SuiteInputs, outcome) -> dict:
        reports = [r for r in outcome[0] if r.strategy == "dacs"]
        dup = [
            np.mean([rec.near_duplicate_fraction for rec in r.records if rec.near_duplicate_fraction is not None])
            for r in reports
        ]
        return {
            "final_acc": float(np.mean([r.final_accuracy for r in reports])),
            "dup_frac": float(np.mean(dup)),
        }


WORKLOADS = {
    "select_100k": SelectWorkload("select_100k", 100_000),
    "al_near_duplicate": SuiteWorkload("al_near_duplicate"),
}
