#!/usr/bin/env python3
"""Record the pick digests the select workloads check their outputs against.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs the workload's select once per pool seed (0 .. SEED_TABLE-1) and stores
the sha256 of the selected indices in perfbench/digests.json. Record only at a
commit whose picks are the reference: a later change that alters the picks is
a behaviour change, and the benchmark reports it as a failed operation.
"""

import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from workloads import DIGESTS_PATH, ROOT, SEED_TABLE, WORKLOADS, SelectInputs, SelectWorkload, pick_digest  # noqa: E402


def record(workload: SelectWorkload) -> dict:
    digests = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        for seed in range(SEED_TABLE):
            inputs = SelectInputs([workload.write_pool(workdir, seed)])
            workload.reset(inputs)
            code, stderr = workload.run(inputs)
            if code != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit {code}: {stderr}")
            with open(inputs.current.out) as fh:
                digests[str(seed)] = pick_digest(json.load(fh)["selected"])
            print(f"{workload.name} seed {seed}: {digests[str(seed)][:12]}", file=sys.stderr)
    return digests


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    names = sys.argv[1:] or [n for n, w in WORKLOADS.items() if isinstance(w, SelectWorkload)]
    fresh = {name: record(WORKLOADS[name]) for name in names}
    with open(DIGESTS_PATH) as fh:
        table = json.load(fh)
    table.update(fresh)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
