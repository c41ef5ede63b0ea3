"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload is built from a seed and a size. ``run`` is the timed pass; it
calls whdpd only through module attributes and class methods, so the
wrappers in spans.py see every call. ``finish`` runs after the pass timer has
stopped: it checks the outputs and returns what the pass produced.

Workloads:

* paper-train: ``evaluate`` without DPD at drives 0.6, 0.9 and 1.3, one WH
  ``Workbench.train`` at drive 0.9 at the paper's operating point (16-QAM,
  8192 symbols, 2 samples per symbol, K1 = K2 = 15, default FitConfig with
  2000 Adam iterations, paper-like channel), then ``evaluate`` with its
  artifact at the same drives. Each set of evaluations is repeated 10 times,
  and the two sets lie on either side of the fit, so the mean evaluation time
  does not rest on one moment of a host whose speed drifts; repeats must give
  identical results.
* stress: 65536 symbols (N = 131072) with K1 = K2 = 401. A 10-iteration fit
  at drive 0.9, then ``sweep_amplitude_with_fixed_dpd`` with that artifact,
  raw and rescaled, over drives 0.9 to 1.3, plus no-DPD evaluations at 0.9
  and 1.3. The grid starts at the training drive, so the rescale factor is 1
  at its lowest point. Fit and evaluation take about equal time here.
* sweep-small: in-process ``whdpd.cli.main(["sweep", ...])`` over the default
  5-drive grid x 3 modes at 2048 symbols, K = 15 and 400 iterations, writing
  the report, artifacts and training logs to a temporary directory.

Quality outputs of every pass: ``final_loss`` of the WH fit at drive 0.9,
post-DPD ``snr_db`` at drive 0.9, and ``wh_gain_db``, the WH-DPD SNR minus
the SNR of the workload's reference mode at drive 1.3: linear DPD in
sweep-small (the paper's headline comparison), no DPD in paper-train and
stress, which fit no linear model.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from whdpd import cli, experiment
from whdpd.experiment import ExperimentConfig, Workbench
from whdpd.learn import (FitConfig, apply_dpd, artifact_from_dict,
                         artifact_to_dict)
from whdpd.txsim import channel_to_dict, paper_like_preset

TRAIN_DRIVE = 0.9
GAIN_DRIVE = 1.3
# The seed sets the channel's noise realization; the transmitted bits are the
# same in every run. Drives are set by the waveform's peak, so the fit's final
# loss follows the crest factor of the bits: over ten seeds, at 1024 symbols
# and 2000 iterations, its interquartile range is 22 % of the median when the
# bits vary with the seed and 5 % when only the noise does.
DATA_SEED = 0

# size -> workload -> parameters. "smoke" lets the benchmark's own tests run
# every workload in seconds.
SIZES = {
    "full": {
        "paper-train": dict(n_symbols=8192, k=15, iterations=2000,
                            eval_rounds=10),
        "stress": dict(n_symbols=65536, k=401, iterations=10),
        "sweep-small": dict(n_symbols=2048, k=15, iterations=400),
    },
    "smoke": {
        "paper-train": dict(n_symbols=256, k=15, iterations=150,
                            eval_rounds=2),
        "stress": dict(n_symbols=1024, k=41, iterations=10),
        "sweep-small": dict(n_symbols=256, k=15, iterations=150),
    },
}


@dataclass
class Outcome:
    """What one pass produced, known once its outputs are checked."""

    rows: int
    outputs: dict
    checks: list = field(default_factory=list)  # (name, ok, detail)
    bytes_written: int = 0


def check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def check_fit(checks, label, artifact):
    first = artifact.history[0][1] if artifact.history else math.nan
    check(checks, f"{label}: fit is finite and ends below its first loss",
          math.isfinite(artifact.final_loss) and artifact.final_loss < first,
          f"first {first!r}, final {artifact.final_loss!r}")


def check_round_trip(checks, artifact, signal):
    doc = json.loads(json.dumps(artifact_to_dict(artifact)))
    again = artifact_from_dict(doc)
    same = np.array_equal(apply_dpd(artifact, signal).samples,
                          apply_dpd(again, signal).samples)
    check(checks, "artifact survives dict -> JSON -> dict with "
          "bit-identical apply_dpd output", same)


def experiment_config(seed, n_symbols, k, iterations, **over):
    return ExperimentConfig(n_symbols=n_symbols, k1=k, k2=k, seed=DATA_SEED,
                            channel=paper_like_preset(seed),
                            fit=FitConfig(iterations=iterations), **over)


class PaperTrain:
    drives = (0.6, TRAIN_DRIVE, GAIN_DRIVE)

    def __init__(self, seed, n_symbols, k, iterations, eval_rounds):
        self.cfg = experiment_config(seed, n_symbols, k, iterations)
        self.bench = Workbench(self.cfg)
        self.eval_rounds = eval_rounds

    def run(self):
        none = self._rounds(None)
        artifact = self.bench.train(TRAIN_DRIVE)
        return artifact, self._rounds(artifact), none

    def _rounds(self, artifact):
        return [{v: self.bench.evaluate(artifact, v) for v in self.drives}
                for _ in range(self.eval_rounds)]

    def finish(self, data, full_checks):
        artifact, dpd, none = data
        outputs = {
            "final_loss": artifact.final_loss,
            "snr_db": dpd[0][TRAIN_DRIVE]["snr_db"],
            "wh_gain_db": (dpd[0][GAIN_DRIVE]["snr_db"]
                           - none[0][GAIN_DRIVE]["snr_db"]),
        }
        checks = []
        check(checks, "repeated evaluations are identical",
              all(r == dpd[0] for r in dpd) and all(r == none[0] for r in none))
        if full_checks:
            check_fit(checks, "WH fit", artifact)
            wh = dpd[0][TRAIN_DRIVE]["snr_db"]
            ref = none[0][TRAIN_DRIVE]["snr_db"]
            check(checks, f"WH SNR beats no-DPD SNR at {TRAIN_DRIVE}",
                  wh > ref, f"{wh:.3f} vs {ref:.3f} dB")
            check_round_trip(checks, artifact, self.bench.i_rail)
        return Outcome(rows=2 * len(self.drives), outputs=outputs,
                       checks=checks)


class Stress:
    def __init__(self, seed, n_symbols, k, iterations):
        grid = (TRAIN_DRIVE, 1.0, 1.1, 1.2, GAIN_DRIVE)
        self.cfg = experiment_config(seed, n_symbols, k, iterations,
                                     amplitudes=grid)
        self.bench = Workbench(self.cfg)

    def run(self):
        artifact = self.bench.train(TRAIN_DRIVE)
        sweep = experiment.sweep_amplitude_with_fixed_dpd
        raw = sweep(self.cfg, artifact, rescale=False)
        rescaled = sweep(self.cfg, artifact, rescale=True)
        none = {v: self.bench.evaluate(None, v)
                for v in (TRAIN_DRIVE, GAIN_DRIVE)}
        return artifact, raw, rescaled, none

    def finish(self, data, full_checks):
        artifact, raw, rescaled, none = data
        at = {r["v_in"]: r for r in raw.rows}
        outputs = {
            "final_loss": artifact.final_loss,
            "snr_db": at[TRAIN_DRIVE]["snr_db"],
            "wh_gain_db": (at[GAIN_DRIVE]["snr_db"]
                           - none[GAIN_DRIVE]["snr_db"]),
        }
        checks = []
        if full_checks:
            check_fit(checks, "WH fit", artifact)
            wh, ref = at[TRAIN_DRIVE]["snr_db"], none[TRAIN_DRIVE]["snr_db"]
            check(checks, f"WH SNR beats no-DPD SNR at {TRAIN_DRIVE}",
                  wh > ref, f"{wh:.3f} vs {ref:.3f} dB")
            keys = ("snr_db", "out_rms", "papr_db")
            lo_raw, lo_res = raw.rows[0], rescaled.rows[0]
            check(checks, "raw and rescaled rows agree exactly at the "
                  "lowest drive",
                  all(lo_raw[k] == lo_res[k] for k in keys),
                  f"{[lo_raw[k] for k in keys]} vs "
                  f"{[lo_res[k] for k in keys]}")
            check(checks, "every sweep row is finite",
                  all(math.isfinite(r[k]) for r in raw.rows + rescaled.rows
                      for k in keys))
            check_round_trip(checks, artifact, self.bench.i_rail)
        return Outcome(rows=len(raw.rows) + len(rescaled.rows) + len(none),
                       outputs=outputs, checks=checks)


class SweepSmall:
    def __init__(self, seed, n_symbols, k, iterations, out_dir):
        self.doc = {
            "seed": DATA_SEED,
            "signal": {"n_symbols": n_symbols},
            "model": {"k1": k, "k2": k},
            "fit": {"iterations": iterations},
            "channel": channel_to_dict(paper_like_preset(seed))["channel"],
        }
        self.cfg, _ = cli.build_config(self.doc)
        self.out_dir = Path(out_dir)
        self.config_path = self.out_dir / f"sweep-small-s{seed}.config.json"
        self.config_path.write_text(json.dumps(self.doc))

    def run(self):
        tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.out_dir))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(self.config_path),
                             "--out", str(tmp)])
        return code, tmp

    def finish(self, data, full_checks):
        code, tmp = data
        try:
            return self._check(code, tmp, full_checks)
        finally:
            shutil.rmtree(tmp)

    def _check(self, code, tmp, full_checks):
        checks = []
        check(checks, "sweep exits with code 0", code == 0, f"exit {code}")
        with open(tmp / "report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        expected = [(v, m) for v in self.cfg.amplitudes for m in self.cfg.modes]
        got = [(float(r["v_in"]), r["mode"]) for r in rows]
        check(checks, "report.csv has every drive x mode row",
              len(got) == len(expected)
              and all(math.isclose(a, c) and b == d
                      for (a, b), (c, d) in zip(got, expected)),
              f"{len(got)} rows, {len(expected)} expected")
        check(checks, "no row has an error mode",
              not any("!error" in r["mode"] for r in rows))
        by = {(float(r["v_in"]), r["mode"]): r for r in rows}
        snr = {key: float(r["snr_db"]) for key, r in by.items()}
        outputs = {
            "final_loss": float(by[(TRAIN_DRIVE, "wh")]["final_loss"]),
            "snr_db": snr[(TRAIN_DRIVE, "wh")],
            "wh_gain_db": snr[(GAIN_DRIVE, "wh")] - snr[(GAIN_DRIVE, "linear")],
        }
        if full_checks:
            wh, none = snr[(TRAIN_DRIVE, "wh")], snr[(TRAIN_DRIVE, "no-dpd")]
            check(checks, f"WH SNR beats no-DPD SNR at {TRAIN_DRIVE}",
                  wh > none, f"{wh:.3f} vs {none:.3f} dB")
            for (v, mode), row in by.items():
                if mode not in ("linear", "wh"):
                    continue
                self._check_artifact(checks, tmp, v, mode, row)
        written = sum(p.stat().st_size for p in tmp.iterdir())
        return Outcome(rows=len(rows), outputs=outputs, checks=checks,
                       bytes_written=written)

    @staticmethod
    def _check_artifact(checks, tmp, v, mode, row):
        stem = tmp / f"artifact_{mode}_v{format(v, '.12g')}"
        doc = json.loads(Path(f"{stem}.json").read_text())
        artifact = artifact_from_dict(doc)
        with open(f"{stem}_log.csv", newline="") as f:
            first = float(next(csv.DictReader(f))["loss"])
        label = f"{mode} fit at {v}"
        check(checks, f"{label}: fit is finite and ends below its first loss",
              math.isfinite(artifact.final_loss)
              and artifact.final_loss < first,
              f"first {first!r}, final {artifact.final_loss!r}")
        check(checks, f"{label}: report row matches the saved artifact",
              row["final_loss"] == format(artifact.final_loss, ".12g"))
        check(checks, f"{label}: saved artifact survives dict -> JSON -> dict",
              artifact_to_dict(artifact) == doc)


def make(name, seed, size, out_dir):
    params = SIZES[size][name]
    if name == "paper-train":
        return PaperTrain(seed, **params)
    if name == "stress":
        return Stress(seed, **params)
    return SweepSmall(seed, out_dir=out_dir, **params)
