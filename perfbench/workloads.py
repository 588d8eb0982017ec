"""The three benchmark workloads.

Each workload has three steps:

* ``prepare(seed, work_dir)`` builds the config and any input files.  It is
  not timed.
* ``run(state)`` is one timed iteration.  It calls the entry points users
  call (``run_accuracy_experiment``, ``run_compatibility_matrix``, and
  ``blechannel.cli.main``) and returns their raw results.
* ``examine(state, raw)`` is not timed.  It splits the iteration into
  operations, hashes their outputs and checks properties that hold for
  every seed.

All blechannel names are looked up through their module at call time, so
the wrappers that ``tracing.instrumented`` installs are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import traceback
from dataclasses import dataclass, field

CHANNELS = ("37", "38", "39")
LABELS = frozenset(CHANNELS + ("guard", "pre-start"))

# Acceptance criterion 2: 20 replicas x 600 s, 50 ppm drift, 0-50 ms jitter.
ACCURACY_CONFIG = dict(
    n_seeds=20,
    duration_s=600.0,
    bucket_s=30.0,
    drift_rate=50e-6,
    jitter_min_s=0.0,
    jitter_max_s=0.05,
)
# Acceptance criterion 4: 420 s with a scan restart every 60 s.
MATRIX_CONFIG = dict(duration_s=420.0, restart_every_s=60.0)
MATRIX_ROWS = (
    "compliant",
    "balanced-offset",
    "alt-interval",
    "rapid-toggle",
    "nonstandard-order",
    "continue-channel",
)
CLI_SEEDS_PER_ITERATION = 4
N_CALIBRATION_SAMPLES = 600


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class Op:
    """One top-level call: an experiment or a CLI command."""

    name: str
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Examined:
    ops: list[Op]
    # Counts read from the outputs, named like the traced counts they equal.
    counts: dict[str, int]
    # Properties every seed must satisfy; each entry is a violation.
    problems: list[str]


def _call(fn, *args):
    """(result, None) or (None, what went wrong)."""
    try:
        return fn(*args), None
    except SystemExit as exc:  # argparse exits on a usage error
        return None, f"exit code {exc.code}"
    except Exception:
        return None, traceback.format_exc()


class AccuracyDrift:
    name = "accuracy_drift"
    default_seed = 7

    def __init__(self, config=ACCURACY_CONFIG):
        self.config = dict(config)

    def prepare(self, seed, work_dir):
        from blechannel import harness

        return harness.ExperimentConfig(seed=seed, **self.config)

    def run(self, cfg):
        from blechannel import harness

        return _call(harness.run_accuracy_experiment, cfg)

    def examine(self, cfg, raw):
        curve, error = raw
        op = Op("run_accuracy_experiment", error)
        problems = []
        if curve is not None:
            op.digests["curve.csv"] = sha256_text(curve.to_csv_text())
            expected = math.ceil(cfg.duration_s / cfg.bucket_s)
            if len(curve.buckets) != expected:
                problems.append(f"{len(curve.buckets)} buckets, expected {expected}")
            # 50 ppm over 600 s moves arrivals by at most 30 ms and the jitter
            # by at most 50 ms, both inside the 100 ms half guard, so every
            # classified packet is right whatever the seed.
            for b in curve.buckets:
                if b.n_classified == 0 or b.n_correct != b.n_classified:
                    problems.append(
                        f"bucket {b.start_s:g} s: {b.n_correct}/{b.n_classified} correct"
                    )
        return Examined([op], {}, problems)


class MatrixRestarts:
    name = "matrix_restarts"
    default_seed = 11

    def __init__(self, config=MATRIX_CONFIG):
        self.config = dict(config)

    def prepare(self, seed, work_dir):
        from blechannel import harness

        return harness.ExperimentConfig(seed=seed, **self.config)

    def run(self, cfg):
        from blechannel import harness

        return _call(harness.run_compatibility_matrix, cfg)

    def examine(self, cfg, raw):
        result, error = raw
        op = Op("run_compatibility_matrix", error)
        counts, problems = {}, []
        if result is not None:
            op.digests["matrix.csv"] = sha256_text(result.to_csv_text())
            rows = tuple(r.behavior for r in result.rows)
            if rows != MATRIX_ROWS:
                problems.append(f"matrix rows {rows}")
            for r in result.rows:
                if r.n_classified == 0:
                    problems.append(f"{r.behavior}: nothing classified")
            # Exact anchors and no drift: the compliant row is always right.
            compliant = result.rows[0]
            if compliant.n_correct != compliant.n_classified:
                problems.append(
                    f"compliant: {compliant.n_correct}/{compliant.n_classified} correct"
                )
            # Simulated traces carry the true channel, so the matrix's
            # unclassified column is exactly the guard and pre-start packets.
            counts["detector.channel"] = sum(r.n_classified for r in result.rows)
            counts["detector.packets"] = sum(
                r.n_classified + r.n_unclassified for r in result.rows
            )
        return Examined([op], counts, problems)


@dataclass
class CliState:
    seeds: tuple[int, ...]
    paths: dict[int, dict[str, str]]
    config_args: list[str]


def write_calibration_samples(path: str, seed: int) -> None:
    """Labelled RSSI readings for ``calibrate --in``, drawn from ``seed``.

    Log-distance truth with channel offsets 0/-7/-15 dB and 2 dB shadowing.
    """
    rng = random.Random(f"perfbench-samples:{seed}")
    offsets = {"37": 0.0, "38": -7.0, "39": -15.0}
    lines = ["channel,distance_m,rssi_dbm"]
    for _ in range(N_CALIBRATION_SAMPLES):
        ch = rng.choice(CHANNELS)
        d = 10.0 ** (rng.random() * math.log10(16.0))
        rssi = -40.0 - 20.0 * math.log10(d) + offsets[ch] + rng.gauss(0.0, 2.0)
        lines.append(f"{ch},{d!r},{rssi!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _read_rows(path: str) -> tuple[str, list[list[str]]]:
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


class CliFiles:
    """The README walkthrough.  With an empty config the commands run on
    the defaults, as the README shows; a non-empty one is written to a
    config file and passed to ``simulate`` and ``ranging``."""

    name = "cli_files"
    default_seed = 7

    def __init__(self, config=None):
        self.config = dict(config or {})

    def prepare(self, seed, work_dir):
        config_args = []
        if self.config:
            path = os.path.join(work_dir, "experiment.cfg")
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(f"{k} = {v}\n" for k, v in self.config.items())
            config_args = ["--config", path]
        seeds = tuple(seed + k for k in range(CLI_SEEDS_PER_ITERATION))
        paths = {}
        for s in seeds:
            p = {
                name: os.path.join(work_dir, f"{s}-{name}")
                for name in ("samples.csv", "trace.csv", "labelled.csv", "model.txt", "fit.txt")
            }
            write_calibration_samples(p["samples.csv"], s)
            paths[s] = p
        return CliState(seeds, paths, config_args)

    def commands(self, state):
        """(op name, argv, files to hash) for one iteration, in run order."""
        out = []
        for s in state.seeds:
            p = state.paths[s]
            cfg = state.config_args
            out += [
                (
                    f"simulate:{s}",
                    ["simulate", *cfg, "--seed", str(s), "--out", p["trace.csv"]],
                    ["trace.csv"],
                ),
                (
                    f"classify:{s}",
                    ["classify", "--in", p["trace.csv"], "--out", p["labelled.csv"]],
                    ["labelled.csv"],
                ),
                (
                    f"ranging:{s}",
                    ["ranging", *cfg, "--seed", str(s), "--model-out", p["model.txt"]],
                    ["model.txt"],
                ),
                (
                    f"calibrate:{s}",
                    ["calibrate", "--in", p["samples.csv"], "--out", p["fit.txt"]],
                    ["samples.csv", "fit.txt"],
                ),
            ]
        return out

    def run(self, state):
        from blechannel import cli

        codes = []
        for _, argv, _ in self.commands(state):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, error = _call(cli.main, argv)
            codes.append(error if error is not None else code)
        return codes

    def examine(self, state, codes):
        ops, problems = [], []
        counts = dict.fromkeys(
            ("detector.packets", "detector.channel", "detector.guard", "detector.pre_start"), 0
        )
        for (name, _, outputs), code in zip(self.commands(state), codes):
            op = Op(name)
            if code != 0:
                op.error = code if isinstance(code, str) else f"exit code {code}"
            else:
                seed = int(name.split(":")[1])
                for out in outputs:
                    op.digests[f"{seed}/{out}"] = sha256_file(state.paths[seed][out])
            ops.append(op)
        for s in state.seeds:
            p = state.paths[s]
            try:
                _, trace_rows = _read_rows(p["trace.csv"])
                header, rows = _read_rows(p["labelled.csv"])
            except (OSError, IndexError) as exc:
                problems.append(f"seed {s}: unreadable trace: {exc}")
                continue
            if len(rows) != len(trace_rows):
                problems.append(
                    f"seed {s}: {len(rows)} labelled rows for {len(trace_rows)} packets"
                )
            if not header.endswith(",est_channel"):
                problems.append(f"seed {s}: labelled trace header {header!r}")
            for row in rows:
                est = row[-1]
                if est not in LABELS:
                    problems.append(f"seed {s}: bad label {est!r}")
                    break
                if est in CHANNELS and est != row[2]:
                    # Compliant, drift-free captures classify without error.
                    problems.append(f"seed {s}: {row[0]} ns labelled {est}, sent on {row[2]}")
                    break
                key = "channel" if est in CHANNELS else est.replace("-", "_")
                counts[f"detector.{key}"] += 1
            counts["detector.packets"] += len(rows)
        # Each iteration writes its outputs afresh, so a command that fails
        # cannot pass by leaving an earlier iteration's file behind.
        for p in state.paths.values():
            for name in ("trace.csv", "labelled.csv", "model.txt", "fit.txt"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(p[name])
        return Examined(ops, counts, problems)


WORKLOADS = {w.name: w for w in (AccuracyDrift(), MatrixRestarts(), CliFiles())}
