#!/usr/bin/env python3
"""dacs benchmark: a single-process, closed-loop harness with one client.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload select_100k --seed 3 --seconds 50 --trace 0

The harness generates the workload's inputs from --seed, warms up with one
operation, then runs one operation at a time for --seconds, checking every
output. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced operations and reports the
per-layer metrics. The last line of standard output is the result object; the
line before it records the environment and the quality figures. --out FILE
appends both as one JSON line, and

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

diffs two such files per workload and metric.
"""

import os
import sys

# One BLAS thread (nproc is the ceiling): it keeps runs steady on a shared
# machine, and per-layer shares do not depend on how BLAS splits work.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# DACS_SEED would override the seeds of the committed grid config.
os.environ.pop("DACS_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from compare import compare_files  # noqa: E402
from reference import time_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# Input generation and file writing are repeated this many times per run and
# their median enters setup_s; the warm-up operation runs once.
PREPARE_REPEATS = 3


def git_sha(root: str):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over src/dacs/*.py, which identifies the code where git cannot."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "dacs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration") or blas.get("name"),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "machine": platform.machine(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Set up, warm up and run the closed loop; returns (metrics, attempted, failed, info)."""
    t0 = time.perf_counter()
    import dacs.cli  # noqa: F401
    import dacs.config  # noqa: F401

    import_s = time.perf_counter() - t0
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        prepare_s = []
        for _ in range(PREPARE_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.prepare(workdir, seed)
            prepare_s.append(time.perf_counter() - t0)

        attempted = failed = 0
        errors = []

        def one_op(tracer=None):
            nonlocal attempted, failed
            workload.reset(inputs)
            gc.collect()
            if tracer is not None:
                missing = tracer.install()
                if missing:
                    print(f"warning: not traced, not found: {missing}", file=sys.stderr)
            t0 = time.perf_counter()
            try:
                outcome = workload.run(inputs)
                problems = None
            except Exception as exc:  # a failed operation is counted, not fatal
                outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            attempted += 1
            if problems is None:
                problems = workload.check(inputs, outcome)
            if problems:
                failed += 1
                errors.extend(problems)
                print(f"op {attempted} failed: {problems}", file=sys.stderr)
            return elapsed, outcome, not problems

        warmup_s, outcome, ok = one_op()
        plain, traced, layer_samples, reference_s = [], [], [], []
        # Traced and untraced operations alternate in blocks of one rotation
        # over the workload's inputs, so both sides see the same inputs; an
        # untraced run covers at least one rotation.
        block = workload.rotation
        min_ops = 2 * block if trace else block
        # An operation starts only if it is expected to end within --seconds,
        # judged by the slowest one so far plus the mean reference time per
        # operation, so a run's length does not grow by a whole operation.
        start = time.perf_counter()
        i = 0
        while i < min_ops or (
            time.perf_counter() - start + max(plain + traced) + sum(reference_s) / i <= seconds
        ):
            tracer = Tracer() if trace and (i // block) % 2 == 1 else None
            reference_s.extend(time_reference())
            elapsed, outcome, ok = one_op(tracer)
            (traced if tracer else plain).append(elapsed)
            if tracer is not None:
                layer_samples.append(tracer.metrics())
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = workload.quality(inputs, outcome) if ok else {}
    with contextlib.suppress(OSError):  # left in place while another run uses it
        os.rmdir(WORK_ROOT)

    # Other tenants only ever add time, so the fastest operation and the
    # fastest reference pass both approach what the machine gives an idle
    # process; that speed itself drifts between runs on a shared host, and
    # their ratio cancels it (see reference.py). Wall seconds go into the record.
    op_s = statistics.median(plain)
    measured = {
        "op_rel": min(plain) / min(reference_s),
        "setup_s": import_s + statistics.median(prepare_s) + warmup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        # All per-layer figures come from the median traced operation, so
        # that its self times add up to its traced time.
        ordered = sorted(layer_samples, key=lambda m: m["trace.op_s"])
        middle = ordered[(len(ordered) - 1) // 2]
        measured.update(middle)
        measured["trace.overhead_s"] = middle["trace.op_s"] - op_s
    info = {
        "ops_untraced": len(plain),
        "ops_traced": len(traced),
        "op_s": op_s,
        "op_min_s": min(plain),
        "op_s_all": plain,
        "reference_s": statistics.median(reference_s),
        "reference_s_all": reference_s,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "warmup_s": warmup_s,
        "error_rate": failed / attempted,
        "errors": errors[:10],
        **quality,
    }
    return measured, attempted, failed, info


def result_line(bench: dict, measured: dict, trace: bool, attempted: int, failed: int) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in specs},
    }


def print_summary(workload: str, result: dict, info: dict) -> None:
    print(f"[{workload}] attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={info['error_rate']:.4f}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name in ("op_s", "reference_s", "cover_radius", "final_acc", "dup_frac"):
        if name in info:
            print(f"  {name:<36} {info[name]:.6g}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dacs benchmark harness")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="diff two --out files per workload and metric")
    args = parser.parse_args(argv)

    if not os.path.isfile(BENCHMARK_JSON):
        print(f"error: {BENCHMARK_JSON} not found", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    if args.compare:
        print(compare_files(bench, *args.compare))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "dacs", "__init__.py")):
        print("error: src/dacs not found; run from the root of a dacs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    measured, attempted, failed, info = run_workload(workload, args.seed, args.seconds, trace)
    result = result_line(bench, measured, trace, attempted, failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "info": info,
        "result": result,
    }
    print_summary(args.workload, result, info)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "trace", "env", "info")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
