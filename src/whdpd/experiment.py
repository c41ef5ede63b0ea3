"""Experiment orchestration: signal generation, DPD training against a
simulated channel, amplitude sweeps, and CSV/JSON reporting.

Drive amplitude is the peak value of the channel-input signal in units of
the amplifier saturation level (the paper quotes Vpp; the simulator has no
absolute volt scale, so the saturation level is the natural unit). Matching
the lab procedure, signals are compared at a fixed peak input amplitude, so
higher-PAPR pre-distorted signals drive the amplifier with a larger
back-off.

One model is trained on the I rail and applied to both rails (the channel
is identical per rail); SNR is computed jointly over I and Q at two samples
per symbol.
"""

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dsp import (ConstellationSpec, RrcSpec, papr_db, qam_modulate,
                  shape_pulse, snr_db, synchronize)
from .kernels import inner
from .learn import (FitConfig, apply_dpd, artifact_to_dict, capture,
                    dpd_key, fit_linear, indirect_learn, rescale_artifact)
from .model import SCHEMA_VERSION, WhModel, complexity
from .txsim import TxChannel, paper_like_preset, simulate_tx

MODES = ("no-dpd", "linear", "wh")

CSV_COLUMNS = ("schema_version", "v_in", "mode", "out_rms", "snr_db",
               "papr_db", "final_loss", "iterations", "mults_per_sample",
               "adds_per_sample", "error")


@dataclass
class ExperimentConfig:
    order: int = 16
    n_symbols: int = 8192
    rolloff: float = 0.2
    samples_per_symbol: int = 2
    span_symbols: int = 16
    seed: int = 0
    channel: TxChannel = field(default_factory=paper_like_preset)
    k1: int = 15
    k2: int = 15
    fit: FitConfig = field(default_factory=FitConfig)
    amplitudes: tuple = (0.2, 0.4, 0.6, 0.9, 1.3)
    modes: tuple = MODES

    def __post_init__(self):
        for name in ("order", "n_symbols", "samples_per_symbol",
                     "span_symbols", "seed", "k1", "k2"):
            k = getattr(self, name)
            if isinstance(k, bool) or not isinstance(k, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("n_symbols", "k1", "k2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        amps = tuple(self.amplitudes)
        if not amps:
            raise ValueError("amplitudes must not be empty")
        # written so that NaN fails it
        if not all(0 < a < math.inf for a in amps):
            raise ValueError("amplitudes must all be finite and > 0")
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise ValueError("amplitude grid must be strictly increasing")
        self.amplitudes = amps
        self.modes = tuple(self.modes)
        if not self.modes:
            raise ValueError("modes must not be empty")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")


@dataclass
class SweepReport:
    rows: list

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            for row in self.rows:
                w.writerow([_fmt(row.get(c, "")) for c in CSV_COLUMNS])


def _fmt(v):
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return format(v, ".12g")
    return v


def _gain(peak, m):
    """peak / m, the factor that takes a signal whose peak |.| is m to the
    drive amplitude peak."""
    # written so that NaN fails it
    if not 0 < peak < math.inf:
        raise ValueError(f"drive amplitude must be > 0 and finite, got "
                         f"{peak!r}")
    if m == 0:
        raise ValueError("cannot scale an all-zero signal")
    return peak / m


def scale_to_peak(samples, peak):
    return samples * _gain(peak, float(np.max(np.abs(samples))))


def _complex(re, im):
    """re + 1j * im, formed without the 1j * im temporary."""
    z = np.empty(re.size, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _rails(z):
    """The real and imaginary parts of complex z as the rows of one (2, N)
    view."""
    return z.view(np.float64).reshape(-1, 2).T


class Workbench:
    """Holds the generated reference waveform with its mean power, the
    channel noise's draws (one per channel seed and length) and the
    drive-independent part of the last evaluation, and runs single sweep
    points.

    The I and Q rails are views of the complex reference. An evaluation
    pre-distorts both rails into the rows of one (2, N) array (without an
    artifact, a view of the rails). None of the following depends on the
    drive, so the Workbench holds it, read-only, for the last artifact it
    evaluated: that pair; its peak |.|, which the drive scales; its PAPR,
    which scaling does not move; and the rows' conjugate spectra and summed
    energy, which synchronize aligns the two captures against, jointly, at
    one delay. The entry is keyed by learn.dpd_key: the artifact's layout,
    coefficient bits and stored amplitudes, not its identity. So a drive
    sweep with one artifact pre-distorts once, and an artifact edited in
    place, or another one, is pre-distorted afresh.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        spec = ConstellationSpec(cfg.order)
        bits = rng.integers(0, 2, cfg.n_symbols * spec.bits_per_symbol)
        symbols = qam_modulate(bits, spec)
        rrc = RrcSpec(cfg.rolloff, cfg.span_symbols, cfg.samples_per_symbol)
        i_rail, q_rail = shape_pulse(symbols, rrc)
        self.reference = _complex(i_rail.samples, q_rail.samples)
        self.reference.flags.writeable = False
        # snr_db's reference power, formed as it forms it
        self._reference_power = np.mean(np.abs(self.reference) ** 2)
        self.i_rail = i_rail.with_samples(self.reference.real)
        self.q_rail = q_rail.with_samples(self.reference.imag)
        # (channel seed, N) -> that seed's standard-normal draw of N samples
        self._normals = {}
        # (dpd_key, (the pre-distorted I and Q rails as the rows of one
        # (2, N) array, its peak |.|, its PAPR, the rows' conjugate spectra
        # and their summed energy))
        self._held = None

    def _normal(self, seed, n):
        """The channel noise's standard-normal draw for seed and length n,
        drawn on first use and held for every later rail and capture."""
        key = (seed, n)
        if key not in self._normals:
            self._normals[key] = np.random.default_rng(seed).standard_normal(n)
        return self._normals[key]

    def _channel_fn(self, seed_offset=0):
        ch = self.cfg.channel
        ch = replace(ch, seed=ch.seed + seed_offset)
        if ch.noise_snr_db is None:
            return lambda sig: simulate_tx(ch, sig)
        return lambda sig: simulate_tx(
            ch, sig, self._normal(ch.seed, sig.samples.size))

    def train(self, v_in, freeze_nonlinear=False):
        """Indirect learning at drive v_in on the I rail: the WH cascade,
        or with freeze_nonlinear linear-only DPD, the cascade with its
        cubic held at 0, which is one FIR of K1 + K2 - 1 taps and is
        solved for directly (learn.fit_linear)."""
        cfg = self.cfg
        drive = self.i_rail.with_samples(
            scale_to_peak(self.i_rail.samples, v_in))
        if freeze_nonlinear:
            return fit_linear(capture(drive, self._channel_fn()), drive,
                              cfg.k1 + cfg.k2 - 1)
        return indirect_learn(drive, self._channel_fn(),
                              WhModel.lnl(cfg.k1, cfg.k2), cfg.fit)

    def _predistorted(self, artifact):
        """For artifact (the rails themselves for None): the pre-distorted
        I and Q rails as the rows of one (2, N) array, its peak |.| and
        PAPR, the rows' conjugate spectra and their summed energy. The held
        ones when the artifact's key is the held key, else formed and held
        in their place."""
        key = dpd_key(artifact)
        if self._held is None or self._held[0] != key:
            # dropped first, so that a failing apply_dpd leaves none held
            self._held = None
            if artifact is None:
                # the rails, as a view of the reference: no copy is held
                pair = _rails(self.reference)
            else:
                pair = np.stack([apply_dpd(artifact, r).samples
                                 for r in (self.i_rail, self.q_rail)])
            spectra = [np.conj(f, out=f) for f in map(np.fft.rfft, pair)]
            for a in (pair, *spectra):
                a.flags.writeable = False
            self._held = key, (pair, float(np.max(np.abs(pair))),
                               papr_db(_complex(*pair)), spectra,
                               sum(map(inner, pair, pair)))
        return self._held[1]

    def evaluate(self, artifact, v_in):
        """Apply an optional DPD artifact, drive the channel at peak v_in,
        and measure SNR / output RMS / channel-input PAPR. PAPR does not
        depend on the drive and is that of the unscaled pre-distorted
        rails. The two captures are aligned jointly, at one delay, to the
        unscaled rails, whose held spectra serve every drive: a reference's
        scale moves neither the correlation peak nor its normalized
        height."""
        pair, peak, papr, spectra, energy = self._predistorted(artifact)
        # each scaled rail contiguous, also from the view of the reference
        z = np.multiply(pair, _gain(v_in, peak), order="C")
        out = [self._channel_fn(o)(rail.with_samples(z[o]))
               for o, rail in enumerate((self.i_rail, self.q_rail))]
        # the scaled rails and then the captures are let go once read: the
        # synchronize and SNR stages, which held them all, set the
        # evaluation's peak memory
        del z
        # the captures are aligned straight into the complex signal that
        # snr_db reads
        aligned = np.empty(pair.shape[1], dtype=np.complex128)
        synchronize(pair, out, spectrum=spectra, energy=energy,
                    out=_rails(aligned))
        # mean(o_I**2 + o_Q**2), each square formed over its own capture,
        # which nothing reads after synchronize
        o_i, o_q = (np.square(o.samples, out=o.samples) for o in out)
        o_i += o_q
        out_rms = float(np.sqrt(np.mean(o_i)))
        del out, o_i, o_q
        snr = snr_db(self.reference, aligned, self._reference_power)
        return {"snr_db": snr, "out_rms": out_rms, "papr_db": papr}

    def run_point(self, v_in, mode):
        """One (amplitude, mode) job: train if needed, evaluate, build a row."""
        artifact = None
        if mode == "linear":
            artifact = self.train(v_in, freeze_nonlinear=True)
        elif mode == "wh":
            artifact = self.train(v_in)
        row = _row(v_in, mode, self.evaluate(artifact, v_in), artifact)
        return row, artifact


def _row(v_in, mode, metrics=None, artifact=None, error=None):
    """One report row. Without metrics or an artifact the measurements are
    NaN and the counts 0; an error marks the mode as mode!error:<Type> and
    fills the error column with its message."""
    nan = float("nan")
    row = {"schema_version": SCHEMA_VERSION, "v_in": v_in, "mode": mode,
           "out_rms": nan, "snr_db": nan, "papr_db": nan, "final_loss": nan,
           "iterations": 0, "mults_per_sample": 0, "adds_per_sample": 0,
           "error": ""}
    if metrics is not None:
        row.update(metrics)
    if artifact is not None:
        rep = complexity(artifact.model)
        row.update(final_loss=artifact.final_loss,
                   iterations=artifact.iterations,
                   mults_per_sample=rep.multiplications_per_sample,
                   adds_per_sample=rep.additions_per_sample)
    if error is not None:
        row.update(mode=f"{mode}!error:{type(error).__name__}",
                   error=str(error))
    return row


def run_experiment(cfg, out_dir=None):
    """Full sweep over amplitudes x modes, returned as a SweepReport;
    optionally persists the CSV report, trained artifacts and training logs
    under out_dir."""
    bench = Workbench(cfg)
    rows = []
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for v in cfg.amplitudes:
        for mode in cfg.modes:
            try:
                row, artifact = bench.run_point(v, mode)
            except Exception as exc:
                rows.append(_row(v, mode, error=exc))
                continue
            rows.append(row)
            if artifact is not None and out is not None:
                stem = out / f"artifact_{mode}_v{_fmt(float(v))}"
                save_artifact(artifact, f"{stem}.json", f"{stem}_log.csv")
    report = SweepReport(rows)
    if out is not None:
        report.to_csv(out / "report.csv")
    return report


def save_artifact(artifact, path, log_path):
    """Write the artifact as JSON to path and its training log as CSV
    (iteration, loss, gradient norm) to log_path."""
    with open(path, "w") as f:
        json.dump(artifact_to_dict(artifact), f, indent=2)
    with open(log_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["schema_version", "iteration", "loss", "grad_norm"])
        for it, j, gn in artifact.history:
            w.writerow([SCHEMA_VERSION, it, _fmt(float(j)), _fmt(float(gn))])


def sweep_amplitude_with_fixed_dpd(cfg, artifact, rescale=False, out_dir=None):
    """Apply one artifact (trained at the grid's lowest amplitude) across the
    whole amplitude grid; optionally rescale its nonlinear coefficients for
    the drive change."""
    bench = Workbench(cfg)
    v0 = cfg.amplitudes[0]
    mode = "wh-fixed-rescaled" if rescale else "wh-fixed"
    rows = []
    for v in cfg.amplitudes:
        art = rescale_artifact(artifact, v / v0) if rescale else artifact
        rows.append(_row(v, mode, bench.evaluate(art, v), art))
    report = SweepReport(rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "report_fixed.csv")
    return report


def matched_rms_comparison(cfg, drive, rms_tol_db=0.2, max_iter=40):
    """Compare WH vs linear-only DPD at matched channel-output RMS.

    Trains both modes at `drive`, then bisects the WH drive over
    [0.3*drive, 3*drive] until its channel-output RMS matches the
    linear-only run's within rms_tol_db, the gap 20*log10 of the RMS
    (amplitude) ratio. Returns a dict with both SNRs, the matched operating
    points and that gap (rms_gap_db); raises ValueError when no drive
    within max_iter bisection steps matches.
    """
    bench = Workbench(cfg)
    lin_art = bench.train(drive, freeze_nonlinear=True)
    wh_art = bench.train(drive)
    lin = bench.evaluate(lin_art, drive)
    target = lin["out_rms"]

    lo, hi = 0.3 * drive, 3.0 * drive
    v = drive
    wh = bench.evaluate(wh_art, v)
    gap_db = 20.0 * math.log10(wh["out_rms"] / target)
    for _ in range(max_iter):
        if abs(gap_db) <= rms_tol_db:
            break
        if gap_db < 0:
            lo = v
        else:
            hi = v
        v = 0.5 * (lo + hi)
        wh = bench.evaluate(wh_art, v)
        gap_db = 20.0 * math.log10(wh["out_rms"] / target)
    if abs(gap_db) > rms_tol_db:
        raise ValueError(
            f"no WH drive in [{0.3 * drive:.6g}, {3.0 * drive:.6g}] matched "
            f"the linear-only output RMS {target:.6g} within {rms_tol_db} dB "
            f"after {max_iter} bisection steps: last drive {v:.6g} "
            f"(bracket [{lo:.6g}, {hi:.6g}]) left a gap of {gap_db:+.4g} dB")
    return {"linear_snr_db": lin["snr_db"], "wh_snr_db": wh["snr_db"],
            "linear_v_in": drive, "wh_v_in": v,
            "linear_out_rms": target, "wh_out_rms": wh["out_rms"],
            "rms_gap_db": gap_db}
