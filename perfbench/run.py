#!/usr/bin/env python3
"""blechannel benchmark: one workload per invocation.

    python3 perfbench/run.py --workload accuracy_drift --seed 7 --seconds 40 --trace 0

Run it from the repository root.  It imports the package from ``src/`` of
the same checkout, runs whole iterations of the workload until the next one
would end after ``--seconds``, checks every output against the golden
record in ``perfbench/golden.json`` and prints, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics with no spans recorded.
Iteration times are reported in ``kref``, thousands of a fixed reference
block that is timed while the iteration runs (``hostspeed.py``), so that
the shared host's changing speed cancels out.
``--trace 1`` alternates traced and untraced iterations and reports the
per-layer self times and counts, plus the tracing overhead.  The full
report (provenance, per-iteration figures, digests) goes to
``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
WORK_DIR = HERE / "_work"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 9
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed  # noqa: E402
from tracing import (  # noqa: E402
    COUNT_SPAN,
    ITERATION_SPAN,
    TRACED,
    Tracer,
    instrumented,
    self_time_by_name,
)
from workloads import WORKLOADS  # noqa: E402

SELF_TIME_NAMES = [f"{m}.{f}" for m, f in TRACED]
COUNT_NAMES = [
    "simkit.events",
    "simkit.windows",
    "simkit.beacons",
    "simkit.packets",
    "detector.packets",
    "detector.channel",
    "detector.guard",
    "detector.pre_start",
    "harness.trace_bytes_out",
    "harness.trace_bytes_in",
    "ranging.samples",
]


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def bootstrap() -> None:
    """Cap BLAS threads and import blechannel from this checkout's ``src``."""
    nproc = str(os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = nproc
    if not (SRC / "blechannel" / "__init__.py").is_file():
        raise BenchError(f"no blechannel package under {SRC}")
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blechannel
    import blechannel.cli  # noqa: F401  (cli is not imported by the package)

    if Path(blechannel.__file__).resolve().parent != (SRC / "blechannel").resolve():
        raise BenchError(f"imported blechannel from {blechannel.__file__}, not {SRC}")


@dataclass
class Iteration:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    # Mean host speed while the iteration ran: reference kblocks per second.
    kref_per_s: float
    ops: list
    counts: dict[str, int]
    problems: list[str]
    failed_ops: list[str] = field(default_factory=list)

    @property
    def run_kref(self) -> float:
        return self.wall_s * self.kref_per_s

    @property
    def cpu_kref(self) -> float:
        return self.cpu_s * self.kref_per_s


def run_iteration(wl, state, tracer: Tracer, index: int, traced: bool) -> Iteration:
    """One timed iteration, then the untimed hashing and checks."""
    tracer.iteration = index
    root = tracer.span(ITERATION_SPAN) if traced else contextlib.nullcontext()
    with instrumented(tracer, timed=traced), HostSpeed() as speed:
        t0, c0 = time.perf_counter(), time.process_time()
        with root:
            raw = wl.run(state)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ex = wl.examine(state, raw)
    counts = dict(tracer.counts[index])
    for key, value in ex.counts.items():
        if key in counts and counts[key] != value:
            ex.problems.append(f"{key}: traced {counts[key]}, outputs give {value}")
        counts[key] = value
    return Iteration(
        index, traced, wall, cpu, speed.kref_per_s(), ex.ops, counts, ex.problems
    )


def check(it: Iteration, expected: dict | None, first: dict[str, dict]) -> None:
    """Mark the iteration's failed operations.

    An operation fails if it raised or exited non-zero, or if a digest
    differs from the golden record or from the same output earlier in this
    run.  A simulated count that differs from the record, or a violated
    property, fails every operation of the iteration.
    """
    golden = expected or {}
    for op in it.ops:
        bad = op.error is not None
        for key, value in op.digests.items():
            if not _agrees(key, value, first.setdefault("digests", {}), golden.get("digests", {})):
                it.problems.append(f"{op.name}: digest of {key} differs")
                bad = True
        if bad:
            it.failed_ops.append(op.name)
    for key, value in it.counts.items():
        if not _agrees(key, value, first.setdefault("counts", {}), golden.get("counts", {})):
            it.problems.append(f"{key} = {value} differs from the record or an earlier iteration")
    if it.problems:
        it.failed_ops = [op.name for op in it.ops]


def _agrees(key, value, seen: dict, golden: dict) -> bool:
    return value == seen.setdefault(key, value) and value == golden.get(key, value)


def time_setup(workload) -> float:
    """Wall seconds for a fresh interpreter to import and configure."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(workload.config)]
    t0 = time.perf_counter()
    subprocess.run(probe, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - t0


def tail_percentile(values: list[float]):
    """Highest of p99..p50 with at least ten samples above it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def provenance() -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "blechannel").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(iters: list[Iteration], setup: list[float]) -> dict:
    rates = (it.counts.get("simkit.packets", 0) / it.run_kref for it in iters)
    return {
        "run_kref": metric(statistics.median(it.run_kref for it in iters), "kref"),
        "cpu_kref": metric(statistics.median(it.cpu_kref for it in iters), "kref"),
        "packets_per_kref": metric(statistics.median(rates), "1/kref"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(iters: list[Iteration], tracer: Tracer) -> dict:
    traced = [it for it in iters if it.traced]
    plain = [it for it in iters if not it.traced]
    by_name = self_time_by_name(tracer.spans)
    out = {}
    for name in SELF_TIME_NAMES:
        out[f"{name}.self_s"] = metric(
            statistics.median(by_name[it.index].get(name, 0.0) for it in traced), "s"
        )
    counts = traced[0].counts
    for name in COUNT_NAMES:
        unit = "B" if name.startswith("harness.trace_bytes") else "count"
        out[name] = metric(counts.get(name, 0), unit)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out["simkit.catch_ratio"] = metric(ratio("simkit.packets", "simkit.beacons"), "ratio")
    out["detector.classified_ratio"] = metric(
        ratio("detector.channel", "detector.packets"), "ratio"
    )
    traced_run = statistics.median(it.run_kref for it in traced)
    plain_run = statistics.median(it.run_kref for it in plain)
    out["trace.run_kref"] = metric(traced_run, "kref")
    out["trace.untraced_run_kref"] = metric(plain_run, "kref")
    out["trace.overhead_ratio"] = metric(traced_run / plain_run, "ratio")
    out["trace.count_s"] = metric(
        statistics.median(by_name[it.index].get(COUNT_SPAN, 0.0) for it in traced), "s"
    )
    out["trace.spans"] = metric(
        statistics.median(
            sum(1 for sp in tracer.spans if sp.iteration == it.index) for it in traced
        ),
        "count",
    )
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: its acceptance seed)"
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    load_before = read_loadavg()
    try:
        bootstrap()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as f:
        expected = json.load(f).get(wl.name, {}).get(str(seed))

    tag = f"{wl.name}-seed{seed}-trace{args.trace}"
    work_dir = WORK_DIR / f"{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tracer = Tracer()
    iters: list[Iteration] = []
    first: dict = {}
    # Set-up probes are spread over the measuring time, between iterations,
    # because the host's speed drifts over tens of seconds.
    setup: list[float] = []
    n_probes = 0 if args.trace else SETUP_PROBES
    try:
        state = wl.prepare(seed, str(work_dir))
        start = time.perf_counter()
        laps = []
        while True:
            lap0 = time.perf_counter()
            due = int((lap0 - start) / args.seconds * n_probes) + 1
            while len(setup) < min(due, n_probes):
                setup.append(time_setup(wl))
            traced = bool(args.trace) and len(iters) % 2 == 0
            it = run_iteration(wl, state, tracer, len(iters), traced)
            check(it, expected, first)
            iters.append(it)
            laps.append(time.perf_counter() - lap0)
            kinds_done = not args.trace or len(iters) >= 2
            if kinds_done and time.perf_counter() - start + max(laps) > args.seconds:
                break
        while len(setup) < n_probes:
            setup.append(time_setup(wl))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()
    metrics = per_layer(iters, tracer) if args.trace else end_to_end(iters, setup)

    # Samples behind each figure: counts and ratios repeat exactly per
    # iteration, so their count only says how often that was checked.
    n_timed = sum(1 for it in iters if it.traced) if args.trace else len(iters)
    samples = {name: n_timed for name in metrics}
    if not args.trace:
        samples.update(peak_rss_mib=1, setup_s=len(setup))
    attempted = sum(len(it.ops) for it in iters)
    failed = sum(len(it.failed_ops) for it in iters)
    report = {
        "workload": wl.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "golden_record": expected is not None,
        "provenance": provenance(),
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
        "setup_s_samples": setup,
        "iterations": [
            {
                "traced": it.traced,
                "wall_s": it.wall_s,
                "cpu_s": it.cpu_s,
                "kref_per_s": it.kref_per_s,
                "failed_ops": it.failed_ops,
                "problems": it.problems,
                "counts": it.counts,
            }
            for it in iters
        ],
        "digests": first.get("digests", {}),
        "metrics": metrics,
        "samples": samples,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    if args.trace:
        tracer.write_jsonl(str(OUT_DIR / f"{tag}.spans.jsonl"))

    for it in iters:
        for problem in it.problems:
            print(f"perfbench: iteration {it.index}: {problem}", file=sys.stderr)
        for op in it.ops:
            if op.error:
                print(f"perfbench: {op.name} failed:\n{op.error}", file=sys.stderr)
    print_summary(report, iters, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_summary(report, iters, attempted, failed) -> None:
    prov = report["provenance"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"iterations={len(iters)} golden_record={'yes' if report['golden_record'] else 'no'}"
    )
    print(
        f"  python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
        f"git {prov['git_sha'] or 'n/a'}, src {prov['src_sha256'][:16]}"
    )
    print(f"  loadavg before [{report['loadavg_before']}] after [{report['loadavg_after']}]")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    plain = [it for it in iters if not it.traced]
    tail = tail_percentile([it.run_kref for it in plain])
    print(
        "  run_kref tail: "
        + (f"p{tail[0]} {tail[1]:.4f} kref" if tail else "n/a")
        + f" ({len(plain)} samples; a percentile needs 10 samples beyond it)"
    )
    speeds = [it.kref_per_s for it in plain]
    print(
        f"  host speed {min(speeds):.3f}-{max(speeds):.3f} kref/s; not normalised: "
        f"median wall {statistics.median(it.wall_s for it in plain):.4f} s, "
        f"cpu {statistics.median(it.cpu_s for it in plain):.4f} s"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<5} n={report['samples'][name]}")
    for key, digest in sorted(report["digests"].items()):
        print(f"  sha256 {key} {digest}")


if __name__ == "__main__":
    sys.exit(main())
