"""Command-line experiment runner.

Subcommands: train, sweep, sweep-fixed, complexity, simulate.
Exit codes: 0 success, 1 config or usage error, 2 the run failed: training
diverged or the capture could not be aligned (in a sweep: any point failed;
report.csv is still written and marks each failed row), 3 I/O error.
"""

import argparse
import json
import math
import numbers
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dsp import AlignmentError, SampledSignal
from .experiment import (ExperimentConfig, Workbench, run_experiment,
                         save_artifact, sweep_amplitude_with_fixed_dpd)
from .learn import FitConfig, TrainingDivergedError, artifact_from_dict
from .model import complexity, model_from_dict
from .txsim import channel_from_dict, paper_like_preset, simulate_tx

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAILED = 2
EXIT_IO = 3

PRESETS = {"paper-like": paper_like_preset}

# what a sweep reports for the points whose rows name these errors
FAILURES = {TrainingDivergedError.__name__: "training diverged",
            AlignmentError.__name__: "capture could not be aligned"}

CONFIG_KEYS = frozenset({"signal", "model", "fit", "sweep", "channel", "seed",
                         "train_amplitude"})


class ConfigError(ValueError):
    pass


def _read(path, parse=dict):
    """parse applied to the JSON document in the file at path. A document
    that parse rejects (KeyError, TypeError, ValueError) raises a
    ConfigError naming the file; an unreadable file raises OSError."""
    with open(path) as f:
        try:
            return parse(json.load(f))
        except KeyError as exc:
            raise ConfigError(f"{path} has no key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def build_config(doc, seed=None):
    """ExperimentConfig from a JSON config document and the --seed
    override. Section keys are ExperimentConfig (signal, model, sweep) and
    FitConfig (fit) field names; an unknown or repeated key raises. The
    channel key is a preset name (default "paper-like") or a channel
    object; train_amplitude, if given, must be a finite number > 0."""
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; "
                          f"allowed: {sorted(CONFIG_KEYS)}")
    drive = doc.get("train_amplitude")
    # written so that NaN fails it
    if "train_amplitude" in doc and (
            isinstance(drive, bool) or not isinstance(drive, numbers.Real)
            or not 0 < drive < math.inf):
        raise ConfigError("drive amplitude must be > 0 and finite: "
                          f"train_amplitude is {drive!r}")
    fit = doc.get("fit", {})
    if "freeze_nonlinear" in fit:
        raise ConfigError("fit.freeze_nonlinear is set per run: use the "
                          "'linear' sweep mode or train --linear-only")

    channel_doc = doc.get("channel", "paper-like")
    if isinstance(channel_doc, str):
        if channel_doc not in PRESETS:
            raise ConfigError(f"unknown channel preset {channel_doc!r}")
        channel = PRESETS[channel_doc]()
    else:
        channel = channel_from_dict({"channel": channel_doc})

    cfg = ExperimentConfig(**doc.get("signal", {}), **doc.get("model", {}),
                           **doc.get("sweep", {}),
                           seed=doc.get("seed", 0) if seed is None else seed,
                           channel=channel, fit=FitConfig(**fit))
    return cfg, doc


def _config(args):
    """(ExperimentConfig, config document) from --config and --seed."""
    return build_config(_read(args.config) if args.config else {}, args.seed)


def cmd_train(args):
    cfg, doc = _config(args)
    v = doc.get("train_amplitude", cfg.amplitudes[0])
    artifact = Workbench(cfg).train(v, freeze_nonlinear=args.linear_only)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_artifact(artifact, out / "artifact.json", out / "training_log.csv")
    print(f"trained at drive {v}: final loss {artifact.final_loss:.6g} "
          f"after {artifact.iterations} iterations")
    return EXIT_OK


def cmd_sweep(args):
    cfg, _ = _config(args)
    report = run_experiment(cfg, out_dir=args.out)
    for row in report.rows:
        print(f"v_in={row['v_in']:<6} mode={row['mode']:<8} "
              f"snr={row['snr_db']:.2f} dB out_rms={row['out_rms']:.4f} "
              f"papr={row['papr_db']:.2f} dB")
    print(f"report written to {Path(args.out) / 'report.csv'}")
    failed = Counter(row["mode"].partition("!error:")[2]
                     for row in report.rows if "!error:" in row["mode"])
    for kind, count in sorted(failed.items()):
        print(f"error: {FAILURES.get(kind, kind)} at {count} sweep point(s)",
              file=sys.stderr)
    return EXIT_FAILED if failed else EXIT_OK


def cmd_sweep_fixed(args):
    cfg, _ = _config(args)
    artifact = _read(args.artifact, artifact_from_dict)
    report = sweep_amplitude_with_fixed_dpd(cfg, artifact,
                                            rescale=args.rescale,
                                            out_dir=args.out)
    for row in report.rows:
        print(f"v_in={row['v_in']:<6} snr={row['snr_db']:.2f} dB "
              f"out_rms={row['out_rms']:.4f}")
    return EXIT_OK


def cmd_complexity(args):
    model = _read(args.model, model_from_dict)
    rep = complexity(model)
    print(f"multiplications_per_sample: {rep.multiplications_per_sample}")
    print(f"additions_per_sample: {rep.additions_per_sample}")
    return EXIT_OK


def cmd_simulate(args):
    if args.preset:
        channel = PRESETS[args.preset]()
    else:
        channel = _read(args.channel, channel_from_dict)
    if args.seed is not None:
        channel = replace(channel, seed=args.seed)
    with warnings.catch_warnings():
        # numpy warns of an empty file, which is rejected below
        warnings.simplefilter("ignore", UserWarning)
        try:
            samples = np.loadtxt(args.input, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{args.input}: {exc}") from exc
    if samples.shape[1] != 1 or samples.size == 0:
        raise ConfigError(f"{args.input}: needs one sample per line")
    samples = samples.ravel()
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"{args.input}: samples must be finite")
    out = simulate_tx(channel, SampledSignal(samples))
    np.savetxt(args.output, out.samples)
    print(f"wrote {out.samples.size} samples to {args.output}")
    return EXIT_OK


def make_parser():
    p = argparse.ArgumentParser(prog="whdpd",
                                description="Wiener-Hammerstein DPD experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed of the data bits (overrides the "
                        "config's seed)")

    sp = sub.add_parser("train", help="fit a DPD artifact against the channel")
    common(sp)
    sp.add_argument("--out", default="out")
    sp.add_argument("--linear-only", action="store_true",
                    help="fit linear-only DPD: one least-squares FIR of "
                    "K1 + K2 - 1 taps")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sweep", help="amplitude sweep over all DPD modes")
    common(sp)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("sweep-fixed",
                        help="sweep amplitudes with one fixed artifact")
    common(sp)
    sp.add_argument("--artifact", required=True)
    sp.add_argument("--rescale", action="store_true",
                    help="rescale nonlinear coefficients with drive")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_sweep_fixed)

    sp = sub.add_parser("complexity", help="per-sample cost of a model file")
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=cmd_complexity)

    sp = sub.add_parser("simulate", help="channel forward pass on a waveform")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--channel", help="channel JSON file")
    source.add_argument("--preset", choices=sorted(PRESETS))
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the channel noise (overrides the "
                    "channel's seed)")
    sp.add_argument("--input", required=True, help="waveform CSV, one sample per line")
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on misuse
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except (TrainingDivergedError, AlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
