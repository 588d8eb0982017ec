"""Command line front end.

Subcommands cover the full loop: simulate a capture, classify a trace,
sweep accuracy over scan time, run the behavior compatibility matrix, fit
an RSSI calibration and compare ranging estimators.  Exit codes: 0 on
success, 1 when input data is unusable, 2 for configuration and usage
errors.  ``BLECHANNEL_SEED`` supplies a seed when neither --seed nor the
config file does, so batch jobs can pin determinism from the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import ranging
from .core import Duration
from .detector import DetectorConfig, classify_trace
from .errors import (
    ConfigError,
    FitError,
    NoDataError,
    TraceOrderError,
    TraceParseError,
)
from .harness import (
    ExperimentConfig,
    read_samples_csv,
    read_trace,
    run_accuracy_experiment,
    run_compatibility_matrix,
    run_ranging_experiment,
    simulate_scenario,
    write_text,
    write_trace,
)
from .simkit import BEHAVIOR_TAGS


def _load_config(args) -> ExperimentConfig:
    """The --config file (or the defaults) with the run seed resolved.

    The seed comes from --seed, else the config file, else
    ``BLECHANNEL_SEED``, else the default.
    """
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    env = os.environ.get("BLECHANNEL_SEED")
    if args.seed is not None:
        cfg.seed = args.seed
    elif "seed" not in cfg.explicit and env is not None:
        try:
            cfg.seed = int(env)
        except ValueError:
            raise ConfigError(f"BLECHANNEL_SEED must be an integer, got {env!r}") from None
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if args.behavior is not None:
        cfg.behavior = args.behavior
    if args.duration is not None:
        cfg.duration_s = args.duration
    trace = simulate_scenario(cfg, cfg.seed, with_rssi=not args.no_rssi)
    write_trace(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace.packets)} packets, "
        f"behavior={trace.behavior_tag}, seed={trace.seed}"
    )
    return 0


def cmd_classify(args) -> int:
    trace = read_trace(args.infile)
    dconf = DetectorConfig(
        scan_settings=trace.scan_settings, guard=Duration.from_seconds(args.guard)
    )
    classified = classify_trace(trace.packets, trace.restarts, dconf)
    n_channel, n_guard, n_pre = np.bincount(classified.kind, minlength=3).tolist()
    outcome = classified.outcomes(trace.packets.channel)
    n_judged = int(np.count_nonzero(outcome >= 0))
    if args.out:
        write_trace(dataclasses.replace(trace, est_labels=classified.labels()), args.out)
        print(f"wrote {args.out}")
    print(
        f"{len(classified)} packets: {n_channel} classified, "
        f"{n_guard} guard, {n_pre} pre-start"
    )
    if n_judged:
        correct = int(np.count_nonzero(outcome == 1))
        print(f"accuracy against ground truth: {correct / n_judged:.4f} ({n_judged} judged)")
    return 0


def cmd_accuracy(args) -> int:
    cfg = _load_config(args)
    curve = run_accuracy_experiment(cfg)
    curve.write(args.out)
    totals = curve.totals
    acc = "n/a" if totals.accuracy is None else f"{totals.accuracy:.4f}"
    print(
        f"wrote {args.out}: {totals.n_classified} classified "
        f"({totals.n_unclassified} unclassified), overall accuracy {acc}"
    )
    worst = curve.first_imperfect_bucket()
    if totals.n_classified == 0:
        print("no packet was classified")
    elif worst is None:
        print("all buckets at 100%")
    else:
        print(
            f"first bucket below 100% starts at {worst.start_s:.10g} s "
            f"(accuracy {worst.accuracy:.4f})"
        )
    return 0


def cmd_matrix(args) -> int:
    cfg = _load_config(args)
    result = run_compatibility_matrix(cfg)
    sys.stdout.write(result.to_text())
    if args.out:
        write_text(args.out, result.to_csv_text())
        print(f"wrote {args.out}")
    return 0


def cmd_ranging(args) -> int:
    cfg = _load_config(args)
    result = run_ranging_experiment(cfg)
    sys.stdout.write(result.to_text())
    if args.model_out:
        write_text(args.model_out, result.comparison.aware.to_text())
        print(f"wrote {args.model_out}")
    return 0


def cmd_calibrate(args) -> int:
    if args.exponent is not None and not 0 < args.exponent < math.inf:
        raise ConfigError(f"--exponent must be finite and positive, got {args.exponent!r}")
    samples = read_samples_csv(args.infile)
    model = ranging.calibrate(
        samples,
        path_loss_exponent=args.exponent,
        channel_aware=not args.agnostic,
    )
    if args.out:
        write_text(args.out, model.to_text())
        print(f"wrote {args.out}")
    print(
        f"intercept {model.intercept_dbm:.3f} dBm, "
        f"exponent {model.path_loss_exponent:.4f}, "
        f"offsets 38/39 {model.channel_offset_db[1]:.3f}/{model.channel_offset_db[2]:.3f} dB, "
        f"{model.n_samples} samples"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    ``parse_args`` fills a fresh namespace on every call and no argument
    keeps a mutable default, so one parser serves every :func:`main` call.
    """
    parser = argparse.ArgumentParser(
        prog="blechannel",
        description="BLE advertising-channel identification and channel-aware ranging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="experiment config file")
        sp.add_argument("--seed", type=int, default=None, help="override the run seed")

    sp = sub.add_parser("simulate", help="simulate a capture and write a trace CSV")
    common(sp)
    sp.add_argument("--behavior", choices=sorted(BEHAVIOR_TAGS), default=None)
    sp.add_argument("--duration", type=float, default=None, help="capture length in seconds")
    sp.add_argument("--no-rssi", action="store_true", help="leave the rssi_dbm column empty")
    sp.add_argument("--out", required=True, help="trace CSV to write")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("classify", help="classify a trace CSV by arrival time")
    sp.add_argument("--in", dest="infile", required=True, help="trace CSV to read")
    sp.add_argument("--out", default=None, help="write the trace back with est_channel column")
    sp.add_argument("--guard", type=float, default=0.2, help="guard zone width in seconds")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("accuracy", help="accuracy over elapsed scan time")
    common(sp)
    sp.add_argument("--out", required=True, help="curve CSV to write")
    sp.set_defaults(func=cmd_accuracy)

    sp = sub.add_parser("matrix", help="per-behavior compatibility matrix")
    common(sp)
    sp.add_argument("--out", default=None, help="also write the matrix as CSV")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("ranging", help="channel-aware vs agnostic ranging comparison")
    common(sp)
    sp.add_argument("--model-out", default=None, help="write the channel-aware fit")
    sp.set_defaults(func=cmd_ranging)

    sp = sub.add_parser("calibrate", help="fit an RSSI model from labeled samples")
    sp.add_argument("--in", dest="infile", required=True, help="samples CSV to read")
    sp.add_argument("--out", default=None, help="model file to write")
    sp.add_argument("--agnostic", action="store_true", help="ignore the channel when fitting")
    sp.add_argument(
        "--exponent",
        type=float,
        default=None,
        help="pin the path-loss exponent instead of fitting it",
    )
    sp.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceParseError, TraceOrderError, NoDataError, FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
