#!/usr/bin/env python3
"""Record the golden correctness record, ``perfbench/golden.json``.

    python3 perfbench/golden.py                                  # default seeds
    python3 perfbench/golden.py --workload cli_files --seeds 0-31

For each workload and seed it runs one traced and one untraced iteration
of the current code and stores the sha256 of every output file and the
simulated counts (events, windows, beacons, packets, labels per kind).
Nothing is recorded if the two iterations disagree or an operation fails.
Every benchmark run at a recorded seed compares each iteration against
this record; ``fail_ratio`` counts the operations that differ.
Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from tracing import Tracer
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(wl, seed: int) -> dict:
    run.WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"golden-{wl.name}-", dir=run.WORK_DIR)
    try:
        state = wl.prepare(seed, work_dir)
        tracer = Tracer()
        first: dict = {}
        iters = [run.run_iteration(wl, state, tracer, i, traced=i == 0) for i in range(2)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for it in iters:
        run.check(it, None, first)
        if it.failed_ops or it.problems:
            raise RuntimeError(f"{wl.name} seed {seed}: {it.failed_ops} {it.problems}")
    return {"digests": first["digests"], "counts": iters[0].counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default=None, help="e.g. 0-31,99 (default: each default seed)")
    args = parser.parse_args(argv)
    run.bootstrap()
    with open(run.GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        seeds = parse_seeds(args.seeds) if args.seeds else [wl.default_seed]
        for seed in seeds:
            golden.setdefault(name, {})[str(seed)] = record(wl, seed)
            print(f"recorded {name} seed {seed}", flush=True)
            with open(run.GOLDEN, "w", encoding="utf-8") as f:
                json.dump(golden, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
