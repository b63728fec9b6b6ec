#!/usr/bin/env python3
"""Record the vsa-capacity outputs of a range of seeds into golden_capacity.json.

    python3 bench/record_golden.py FIRST_SEED LAST_SEED

Runs the workload's two CLI calls once per seed, with the same BLAS thread
cap as the benchmark, and stores the digest of the per-trial error counts,
the capacities and the response statistics. Record on the commit whose
outputs later commits must reproduce; run.py then checks every seed in the
file exactly (response statistics to a relative 1e-9) and checks other
seeds against the sweep protocol and the crosstalk model only.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv):
    first, last = (int(a) for a in argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, run.SRC)
    import hrrkit.cli as cli
    import workloads

    workdir = os.path.join(run.BENCH_DIR, "_work", f"golden-{os.getpid()}")
    os.makedirs(workdir)
    seeds = {}
    try:
        for seed in range(first, last + 1):
            workload = workloads.VsaCapacity(workdir, seed)
            for op in workload.ops():
                if cli.main(list(op.argv)) != 0:
                    raise SystemExit(f"seed {seed}: {op.label} failed")
            seeds[str(seed)] = workload.record()
            print(f"seed {seed}: {seeds[str(seed)]['capacities']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden = {"config": workloads.VsaCapacity(workdir, 0).config(), "seeds": seeds}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
