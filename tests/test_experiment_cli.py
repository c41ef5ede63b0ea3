import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import whdpd
from whdpd import experiment, learn
from whdpd.cli import ConfigError, build_config, main, make_parser
from whdpd.dsp import SampledSignal, papr_db, snr_db, synchronize
from whdpd.experiment import (ExperimentConfig, Workbench,
                              matched_rms_comparison, run_experiment,
                              scale_to_peak, sweep_amplitude_with_fixed_dpd)
from whdpd.kernels import inner
from whdpd.learn import (DpdArtifact, FitConfig, artifact_from_dict,
                         artifact_to_dict, dpd_key, pack)
from whdpd.model import FirBlock, PolyNlBlock, WhModel
from whdpd.txsim import (SaturationSpec, TxChannel, channel_to_dict,
                         paper_like_preset, simulate_tx)


def tiny_cfg(**over):
    base = dict(n_symbols=1024, k1=7, k2=7,
                fit=FitConfig(iterations=150), amplitudes=(0.5,))
    base.update(over)
    return ExperimentConfig(**base)


def identity_channel():
    return TxChannel(saturation=SaturationSpec("arctan", 1e9, 1.0))


# --- config validation ----------------------------------------------------

def test_config_rejects_bad_grid():
    with pytest.raises(ValueError):
        ExperimentConfig(amplitudes=(0.5, 0.4))
    with pytest.raises(ValueError):
        ExperimentConfig(amplitudes=(0.0, 0.4))
    with pytest.raises(ValueError):
        ExperimentConfig(modes=("nope",))


def test_config_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's own message for a negative seed names no field
    assert ExperimentConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        ExperimentConfig(seed=-1)
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["sweep", "--config", str(cfg_path), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("config error: seed must be >= 0, "
                                       "got -1\n")
    assert not (tmp_path / "o").exists()


# --- run_experiment -------------------------------------------------------

def test_identity_channel_hits_snr_ceiling():
    cfg = tiny_cfg(channel=identity_channel())
    report = run_experiment(cfg)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["snr_db"] == 100.0


def test_single_amplitude_gives_three_rows():
    cfg = tiny_cfg(channel=identity_channel())
    report = run_experiment(cfg)
    assert [r["mode"] for r in report.rows] == ["no-dpd", "linear", "wh"]


def test_reports_are_bitwise_reproducible(tmp_path):
    cfg = tiny_cfg()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "report.csv").read_bytes()
            == (tmp_path / "b" / "report.csv").read_bytes())


def test_output_rms_monotone_in_drive_without_dpd():
    cfg = tiny_cfg(amplitudes=(0.3, 0.6, 1.0, 1.5), modes=("no-dpd",))
    report = run_experiment(cfg)
    rms = [r["out_rms"] for r in report.rows]
    assert all(b >= a for a, b in zip(rms, rms[1:]))


def test_report_complexity_matches_formula():
    cfg = tiny_cfg()
    report = run_experiment(cfg)
    for row in report.rows:
        if row["mode"] == "wh":
            # two K-tap FIRs plus the cubic term
            assert row["mults_per_sample"] == cfg.k1 + cfg.k2 + 3
            assert row["adds_per_sample"] == cfg.k1 + cfg.k2 - 1
        elif row["mode"] == "linear":
            # one FIR of K1 + K2 - 1 taps
            assert row["mults_per_sample"] == cfg.k1 + cfg.k2 - 1
            assert row["adds_per_sample"] == cfg.k1 + cfg.k2 - 2


def test_linear_mode_solves_one_fir_on_the_wh_fits_capture():
    cfg = tiny_cfg()
    bench = Workbench(cfg)
    art = bench.train(0.5, freeze_nonlinear=True)
    (block,) = art.model.layers
    assert block.taps.size == cfg.k1 + cfg.k2 - 1
    assert art.nl_input_amplitudes == {}
    assert art.iterations == 1 and len(art.history) == 2
    drive = bench.i_rail.with_samples(
        scale_to_peak(bench.i_rail.samples, 0.5))
    received = learn.capture(drive, bench._channel_fn())
    again = learn.fit_linear(received, drive, cfg.k1 + cfg.k2 - 1)
    assert np.array_equal(again.model.layers[0].taps, block.taps)


def test_report_csv_format(tmp_path):
    cfg = tiny_cfg(channel=identity_channel())
    report = run_experiment(cfg, out_dir=tmp_path)
    text = (tmp_path / "report.csv").read_text().splitlines()
    assert text[0].startswith("schema_version,v_in,mode,")
    assert len(text) == 4
    assert all(line.split(",")[0] == "whdpd-1" for line in text[1:])


def test_artifacts_and_logs_persisted(tmp_path):
    cfg = tiny_cfg()
    run_experiment(cfg, out_dir=tmp_path)
    files = {p.name for p in tmp_path.iterdir()}
    assert "report.csv" in files
    assert any(f.startswith("artifact_wh") and f.endswith(".json")
               for f in files)
    assert any(f.endswith("_log.csv") for f in files)


def test_error_rows_are_flushed():
    # divergence: absurd learning rate overflows the cubic term
    cfg = tiny_cfg(fit=FitConfig(iterations=30, lr_taps=1e120))
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_experiment(cfg)
    modes = [r["mode"] for r in report.rows]
    assert "no-dpd" in modes
    assert any(m.startswith("linear!error") or m.startswith("wh!error")
               for m in modes)


def test_error_column_holds_the_message(tmp_path):
    cfg = tiny_cfg(fit=FitConfig(iterations=30, lr_taps=1e120))
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_experiment(cfg, out_dir=tmp_path)
    failed = [r for r in report.rows if "!error:" in r["mode"]]
    assert failed
    for row in failed:
        assert row["mode"].endswith("!error:TrainingDivergedError")
        assert re.fullmatch(r"training diverged at iteration \d+",
                            row["error"])
    with open(tmp_path / "report.csv", newline="") as f:
        header, *lines = list(csv.reader(f))
    assert header[-1] == "error"
    by_mode = {line[2]: dict(zip(header, line)) for line in lines}
    assert by_mode["no-dpd"]["error"] == ""
    for row in failed:
        cells = by_mode[row["mode"]]
        assert cells["error"] == row["error"]
        # a failed point's measurements are empty cells, not "nan"
        assert [cells[c] for c in ("out_rms", "snr_db", "papr_db",
                                   "final_loss")] == [""] * 4


@pytest.mark.parametrize("drive", [0.0, -0.5])
def test_evaluate_rejects_non_positive_drive(drive):
    bench = Workbench(tiny_cfg())
    with pytest.raises(ValueError, match="drive amplitude must be > 0"):
        bench.evaluate(None, drive)


def test_evaluate_drives_the_rails_with_different_noise_seeds(monkeypatch):
    seeds, normals = [], []
    real = experiment.simulate_tx
    monkeypatch.setattr(experiment, "simulate_tx",
                        lambda ch, x, normal: seeds.append(ch.seed)
                        or normals.append(normal) or real(ch, x, normal))
    Workbench(tiny_cfg()).evaluate(None, 0.5)
    assert len(seeds) == 2 and seeds[0] != seeds[1]
    assert not np.array_equal(normals[0], normals[1])


def _count_rngs(monkeypatch):
    seeds = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: seeds.append(seed) or real(seed))
    return seeds


def test_a_workbench_draws_each_seeds_noise_once(monkeypatch):
    cfg = tiny_cfg(seed=3, channel=paper_like_preset(seed=20))
    seeds = _count_rngs(monkeypatch)
    bench = Workbench(cfg)
    assert seeds == [3]
    artifact = bench.train(0.5)
    assert seeds == [3, 20]
    first = [bench.evaluate(art, v) for art in (None, artifact)
             for v in (0.4, 0.5, 0.9)]
    again = [bench.evaluate(art, v) for art in (None, artifact)
             for v in (0.4, 0.5, 0.9)]
    bench.train(0.9)
    bench.train(0.9, freeze_nonlinear=True)
    assert seeds == [3, 20, 21]
    assert first == again


def test_a_noiseless_channel_draws_nothing(monkeypatch):
    bench = Workbench(tiny_cfg(channel=replace(paper_like_preset(),
                                               noise_snr_db=None)))
    seeds = _count_rngs(monkeypatch)
    bench.evaluate(bench.train(0.5), 0.5)
    assert seeds == []


def test_evaluations_follow_the_channel_seed():
    def evaluations(seed):
        bench = Workbench(tiny_cfg(channel=paper_like_preset(seed=seed)))
        return [bench.evaluate(None, v) for v in (0.5, 0.9)]

    assert evaluations(4) == evaluations(4)
    assert evaluations(4) != evaluations(5)


# --- the held pre-distortion ----------------------------------------------

HELD_DRIVES = (0.4, 0.7, 1.2)


@pytest.fixture(scope="module")
def trained():
    """A config and its three evaluation modes: no artifact, a linear and a
    WH one."""
    cfg = tiny_cfg(channel=paper_like_preset(seed=6))
    bench = Workbench(cfg)
    return cfg, (None, bench.train(0.5, freeze_nonlinear=True),
                 bench.train(0.5))


def _evaluate_unheld(bench, artifact, v):
    """evaluate as formed with nothing held: both rails pre-distorted on
    every call, each capture aligned on its own to its rail as scaled to v,
    and the PAPR that of the unscaled rails, which scaling does not move."""
    pair = np.stack([r.samples if artifact is None
                     else learn.apply_dpd(artifact, r).samples
                     for r in (bench.i_rail, bench.q_rail)])
    z = scale_to_peak(pair, v)
    out = [bench._channel_fn(o)(SampledSignal(z[o])) for o in (0, 1)]
    aligned = [synchronize(SampledSignal(z[o]), out[o])[1].samples
               for o in (0, 1)]
    return {"snr_db": snr_db(bench.reference,
                             experiment._complex(*aligned)),
            "out_rms": float(np.sqrt(np.mean(out[0].samples ** 2
                                              + out[1].samples ** 2))),
            "papr_db": papr_db(experiment._complex(*pair))}


def _count_dpd(monkeypatch):
    calls = []
    real = experiment.apply_dpd
    monkeypatch.setattr(experiment, "apply_dpd",
                        lambda art, x: calls.append(art) or real(art, x))
    return calls


def _copy(artifact, amplitudes=None):
    return DpdArtifact(artifact.model.copy(),
                       dict(amplitudes or artifact.nl_input_amplitudes),
                       artifact.final_loss, artifact.iterations)


@pytest.mark.parametrize("order", ["artifact-major", "drive-major"])
def test_held_evaluations_equal_a_fresh_workbenchs(trained, order):
    cfg, arts = trained
    jobs = [(a, v) for a in arts for v in HELD_DRIVES]
    if order == "drive-major":
        jobs = [(a, v) for v in HELD_DRIVES for a in arts]
    bench = Workbench(cfg)
    for art, v in jobs:
        got = bench.evaluate(art, v)
        assert got == Workbench(cfg).evaluate(art, v)
        assert got == _evaluate_unheld(bench, art, v)


def test_a_drive_sweep_pre_distorts_each_artifact_once(monkeypatch, trained):
    cfg, (_, lin, wh) = trained
    cfg = replace(cfg, amplitudes=(0.5, 0.7, 0.9, 1.1, 1.3))
    calls = _count_dpd(monkeypatch)
    sweep_amplitude_with_fixed_dpd(cfg, wh)
    # one call per rail
    assert len(calls) == 2 and all(art is wh for art in calls)
    # each drive's rescaled artifact is another one, even at factor 1
    sweep_amplitude_with_fixed_dpd(cfg, wh, rescale=True)
    assert len(calls) == 2 + 2 * 5
    bench = Workbench(cfg)
    for art in (lin, wh, _copy(wh),
                artifact_from_dict(json.loads(json.dumps(
                    artifact_to_dict(wh))))):
        bench.evaluate(art, 0.6)
        bench.evaluate(art, 1.1)
    # an equal artifact in another object is the held one
    assert len(calls) == 12 + 4


@pytest.mark.parametrize("edit", ["tap", "cubic", "amplitude"])
def test_an_artifact_edited_in_place_is_pre_distorted_afresh(
        monkeypatch, trained, edit):
    cfg, (_, _, wh) = trained
    art = _copy(wh)
    bench = Workbench(cfg)
    before = bench.evaluate(art, 0.7)
    if edit == "tap":
        art.model.layers[0].taps[2] += 1e-3
    elif edit == "cubic":
        art.model.layers[1].coeffs[3] += 1e-3
    else:
        art.nl_input_amplitudes[1] *= 1.01
    calls = _count_dpd(monkeypatch)
    after = bench.evaluate(art, 0.7)
    assert len(calls) == 2
    assert after != before
    assert after == Workbench(cfg).evaluate(_copy(art), 0.7)


def test_the_same_coefficients_under_another_split_are_pre_distorted_afresh(
        monkeypatch):
    theta = np.random.default_rng(12).normal(size=13) * 0.02
    theta[[2, 5, 9]] += (1.0, 0.05, 1.0)

    def lnl(k1):
        return DpdArtifact(WhModel([
            FirBlock(theta[:k1]), PolyNlBlock({3: theta[k1]}),
            FirBlock(theta[k1 + 1:])]), {1: 0.8}, 0.0, 1)

    a, b = lnl(5), lnl(7)
    assert np.array_equal(pack(a.model), pack(b.model))
    assert dpd_key(a) != dpd_key(b)
    cfg = tiny_cfg(channel=paper_like_preset(seed=6))
    bench = Workbench(cfg)
    bench.evaluate(a, 0.7)
    calls = _count_dpd(monkeypatch)
    got = bench.evaluate(b, 0.7)
    assert len(calls) == 2
    assert got == Workbench(cfg).evaluate(b, 0.7)


def test_a_failing_pre_distortion_leaves_nothing_held(monkeypatch, trained):
    cfg, (_, _, wh) = trained
    bad = _copy(wh, amplitudes={1: float("nan")})
    bench = Workbench(cfg)
    bench.evaluate(wh, 0.7)
    calls = _count_dpd(monkeypatch)
    for _ in range(2):
        with pytest.raises(ValueError, match="no positive stored amplitude"):
            bench.evaluate(bad, 0.7)
        assert bench._held is None
    # the I rail's call raised, each time
    assert len(calls) == 2


def test_held_arrays_and_the_rails_are_read_only(trained):
    cfg, (_, _, wh) = trained
    bench = Workbench(cfg)
    assert np.shares_memory(bench.i_rail.samples, bench.reference)
    assert np.shares_memory(bench.q_rail.samples, bench.reference)
    assert np.array_equal(bench.i_rail.samples + 1j * bench.q_rail.samples,
                          bench.reference)
    held = [a for art in (wh, None)
            for pair, _, _, spectra, _ in [bench._predistorted(art)]
            for a in (pair, *pair, *spectra)]
    assert len(held) == 10
    for a in (bench.reference, bench.i_rail.samples, bench.q_rail.samples,
              *held):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_held_entry_is_one_stacked_pair_with_its_peak(monkeypatch, trained):
    # the rails are stacked, and their peak, PAPR and energy reduced once
    # per artifact, not on every drive
    cfg, arts = trained
    bench = Workbench(cfg)
    n = bench.reference.size
    for art in arts:
        bench.evaluate(art, 0.7)
        pair, peak, papr, _, energy = bench._predistorted(art)
        assert pair.shape == (2, n)
        # without an artifact the rails are held as a view, not a copy
        assert np.shares_memory(pair, bench.reference) == (art is None)
        assert peak == float(np.max(np.abs(pair)))
        assert papr == papr_db(experiment._complex(*pair))
        assert energy == inner(pair[0], pair[0]) + inner(pair[1], pair[1])
        for row, rail in zip(pair, (bench.i_rail, bench.q_rail)):
            want = (rail.samples if art is None
                    else learn.apply_dpd(art, rail).samples)
            assert np.array_equal(row, want)
        stacks = []
        real = np.stack
        monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(a)
                            or real(*a, **k))
        got = bench.evaluate(art, 1.2)
        monkeypatch.setattr(np, "stack", real)
        assert stacks == []
        assert got == _evaluate_unheld(bench, art, 1.2)


def test_held_papr_is_the_scaled_pairs_to_the_last_bits(trained):
    # PAPR does not depend on the scale; in floating point the unscaled and
    # scaled pairs' values differ in their last bit at most
    cfg, arts = trained
    bench = Workbench(cfg)
    for art in arts:
        for v in HELD_DRIVES:
            got = bench.evaluate(art, v)["papr_db"]
            pair = bench._predistorted(art)[0]
            scaled = papr_db(experiment._complex(*scale_to_peak(pair, v)))
            assert got == pytest.approx(scaled, rel=1e-15, abs=0)


def _delayed(channel, d):
    """channel with its post FIR delayed by d samples."""
    taps = channel.post_fir.taps
    return replace(channel, post_fir=FirBlock(
        np.concatenate([np.zeros(2 * d), taps])))


# the perfbench workloads at 1024 symbols: K (the stress workload's large
# K scaled down), the drives and whether the sweep runs the linear mode
WORKLOADS = {
    "paper-train": (15, (0.6, 0.9, 1.3), False),
    "stress": (101, (0.9, 1.0, 1.1, 1.2, 1.3), False),
    "sweep-small": (15, (0.2, 0.4, 0.6, 0.9, 1.3), True),
}


@pytest.mark.parametrize("delay", [0, 5])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_capture_pair_aligns_as_each_rail_alone(workload, delay):
    k, drives, linear = WORKLOADS[workload]
    cfg = ExperimentConfig(
        n_symbols=1024, k1=k, k2=k, fit=FitConfig(iterations=20),
        channel=_delayed(paper_like_preset(seed=7), delay), amplitudes=drives)
    bench = Workbench(cfg)
    arts = [None, bench.train(0.9)]
    if linear:
        arts.append(bench.train(0.9, freeze_nonlinear=True))
    for art in arts:
        for v in drives:
            got = bench.evaluate(art, v)
            pair, _, _, spectra, energy = bench._predistorted(art)
            z = scale_to_peak(pair, v)
            out = [bench._channel_fn(o)(SampledSignal(z[o])) for o in (0, 1)]
            own = [synchronize(SampledSignal(pair[o]), out[o])
                   for o in (0, 1)]
            joint, aligned = synchronize(pair, out, spectrum=spectra,
                                         energy=energy)
            assert joint == own[0][0] == own[1][0] == delay
            assert np.array_equal(aligned, [a.samples for _, a in own])
            assert got == _evaluate_unheld(bench, art, v)


def test_evaluate_rejects_an_unknown_block_type():
    art = DpdArtifact(WhModel([FirBlock.identity(3), "cubic"]), {}, 0.0, 1)
    with pytest.raises(TypeError, match="unknown block type str"):
        Workbench(tiny_cfg()).evaluate(art, 0.5)


@pytest.mark.parametrize("peak", [0.0, -1.0, float("inf"), float("nan")])
def test_scale_to_peak_requires_a_finite_positive_peak(peak):
    with pytest.raises(ValueError, match="drive amplitude must be > 0 and "
                       "finite"):
        scale_to_peak(np.ones(8), peak)


def test_scale_to_peak_rejects_all_zero_signal():
    with pytest.raises(ValueError, match="all-zero signal"):
        scale_to_peak(np.zeros(8), 1.0)


# --- fixed-artifact sweep -------------------------------------------------

def test_fixed_sweep_consistent_with_training_run():
    cfg = tiny_cfg(amplitudes=(0.5,))
    bench = Workbench(cfg)
    artifact = bench.train(0.5)
    report = run_experiment(cfg)
    wh_row = [r for r in report.rows if r["mode"] == "wh"][0]
    fixed = sweep_amplitude_with_fixed_dpd(cfg, artifact)
    assert fixed.rows[0]["snr_db"] == pytest.approx(wh_row["snr_db"],
                                                    abs=1e-9)
    assert fixed.rows[0]["out_rms"] == pytest.approx(wh_row["out_rms"],
                                                     abs=1e-12)


# --- CLI ------------------------------------------------------------------

def write_config(path, **over):
    doc = {
        "signal": {"n_symbols": 1024},
        "model": {"k1": 7, "k2": 7},
        "fit": {"iterations": 150},
        "sweep": {"amplitudes": [0.5]},
        "seed": 0,
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


def test_cli_train_and_complexity(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", train_amplitude=0.5)
    rc = main(["train", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    artifact_path = tmp_path / "out" / "artifact.json"
    assert artifact_path.exists()
    assert (tmp_path / "out" / "training_log.csv").exists()
    log = (tmp_path / "out" / "training_log.csv").read_text().splitlines()
    assert log[0] == "schema_version,iteration,loss,grad_norm"
    assert len(log) > 10

    rc = main(["complexity", "--model", str(artifact_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.match(r"trained at drive 0\.5: final loss \S+ after \d+ "
                    r"iterations\n", out)
    assert "multiplications_per_sample: 17" in out
    assert "additions_per_sample: 13" in out


def test_cli_sweep_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(lines) == 4
    out = capsys.readouterr().out.splitlines()
    for line, mode in zip(out, ("no-dpd", "linear", "wh")):
        assert re.fullmatch(rf"v_in=0\.5 +mode={mode} +snr=\S+ dB "
                            r"out_rms=\S+ papr=\S+ dB", line)
    assert out[3:] == [f"report written to {tmp_path / 'out' / 'report.csv'}"]


def test_cli_sweep_fixed(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", train_amplitude=0.5)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    rc = main(["sweep-fixed", "--config", str(cfg_path),
               "--artifact", str(tmp_path / "t" / "artifact.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "report_fixed.csv").exists()
    assert re.fullmatch(r"v_in=0\.5 +snr=\S+ dB out_rms=\S+\n",
                        capsys.readouterr().out)


def write_artifact(path, amplitudes, drop=()):
    doc = artifact_to_dict(DpdArtifact(model=WhModel.lnl(7, 7, a=-0.02),
                                       nl_input_amplitudes=amplitudes,
                                       final_loss=1e-3, iterations=5))
    for key in drop:
        del doc[key]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("key", ["final_loss", "iterations"])
def test_cli_sweep_fixed_rejects_artifact_without_key(tmp_path, capsys, key):
    cfg_path = write_config(tmp_path / "cfg.json")
    art_path = write_artifact(tmp_path / "a.json", {1: 0.5}, drop=[key])
    assert main(["sweep-fixed", "--config", str(cfg_path),
                 "--artifact", str(art_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key in err and str(art_path) in err
    assert not (tmp_path / "out" / "report_fixed.csv").exists()


@pytest.mark.parametrize("rescale", [[], ["--rescale"]],
                         ids=["fixed", "rescaled"])
def test_cli_sweep_fixed_rejects_artifact_without_amplitude(tmp_path, capsys,
                                                            rescale):
    cfg_path = write_config(tmp_path / "cfg.json",
                            sweep={"amplitudes": [0.5, 1.0]})
    art_path = write_artifact(tmp_path / "a.json", {})
    assert main(["sweep-fixed", "--config", str(cfg_path),
                 "--artifact", str(art_path), *rescale,
                 "--out", str(tmp_path / "out")]) == 1
    assert ("artifact has no positive stored amplitude for nonlinear block 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("amp", [math.nan, math.inf], ids=["nan", "inf"])
def test_cli_sweep_fixed_rejects_a_non_finite_amplitude(tmp_path, capsys,
                                                        amp):
    # a NaN amplitude spread NaN over the pre-distorted signal, which then
    # failed to align
    cfg_path = write_config(tmp_path / "cfg.json")
    art_path = write_artifact(tmp_path / "a.json", {1: amp})
    assert main(["sweep-fixed", "--config", str(cfg_path),
                 "--artifact", str(art_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: artifact has no positive stored amplitude for "
        "nonlinear block 1 (it must be finite and > 0)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amps, stray", [({1: 0.5, 7: 0.3}, [7]),
                                         ({0: 0.2, 1: 0.5, 2: 0.3}, [0, 2])],
                         ids=["past-the-model", "fir-blocks"])
def test_cli_sweep_fixed_rejects_an_amplitude_of_no_polynomial_block(
        tmp_path, capsys, amps, stray):
    cfg_path = write_config(tmp_path / "cfg.json")
    art_path = write_artifact(tmp_path / "a.json", amps)
    assert main(["sweep-fixed", "--config", str(cfg_path),
                 "--artifact", str(art_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: {art_path}: nl_input_amplitudes names blocks "
        f"{stray}, which are not polynomial blocks\n")
    assert not (tmp_path / "out").exists()


def test_cli_sweep_fixed_rejects_an_empty_grid(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", sweep={"amplitudes": []})
    art_path = write_artifact(tmp_path / "a.json", {1: 0.5})
    assert main(["sweep-fixed", "--config", str(cfg_path),
                 "--artifact", str(art_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("config error: amplitudes must not be "
                                       "empty\n")
    assert not (tmp_path / "out").exists()


def test_cli_simulate_roundtrip(tmp_path, capsys):
    ch_path = tmp_path / "channel.json"
    ch_path.write_text(json.dumps(channel_to_dict(identity_channel())))
    wave = tmp_path / "in.csv"
    np.savetxt(wave, np.sin(np.arange(64) * 0.3))
    rc = main(["simulate", "--channel", str(ch_path),
               "--input", str(wave), "--output", str(tmp_path / "out.csv")])
    assert rc == 0
    assert (capsys.readouterr().out
            == f"wrote 64 samples to {tmp_path / 'out.csv'}\n")
    out = np.loadtxt(tmp_path / "out.csv")
    assert np.allclose(out, np.sin(np.arange(64) * 0.3), atol=1e-9)


def test_cli_simulate_seed_sets_the_noise(tmp_path):
    x = np.sin(np.arange(64) * 0.3) * 0.5
    wave = tmp_path / "in.csv"
    np.savetxt(wave, x)
    outs = []
    for seed in ([], ["--seed", "5"]):
        out_path = tmp_path / f"out{len(outs)}.csv"
        assert main(["simulate", "--preset", "paper-like", *seed,
                     "--input", str(wave), "--output", str(out_path)]) == 0
        outs.append(np.loadtxt(out_path))
    expected = simulate_tx(paper_like_preset(seed=5), SampledSignal(x))
    assert np.array_equal(outs[1], expected.samples)
    assert not np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_simulate_rejects_non_finite_input(tmp_path, capsys, bad):
    # the FIRs would spread one NaN over the whole output
    wave = tmp_path / "in.csv"
    wave.write_text(f"{bad}\n1\n2\n")
    out_path = tmp_path / "out.csv"
    assert main(["simulate", "--preset", "paper-like", "--input", str(wave),
                 "--output", str(out_path)]) == 1
    assert capsys.readouterr().err == (f"config error: {wave}: samples must "
                                       "be finite\n")
    assert not out_path.exists()


@pytest.mark.parametrize("text, message", [
    ("1 2\n3 4\n5 6\n", "needs one sample per line"),
    ("1 2\n", "needs one sample per line"),
    ("", "needs one sample per line"),
    ("a\n", "could not convert string 'a' to float64 at row 0, column 1."),
], ids=["two-columns", "one-row-of-two", "empty", "not-a-number"])
def test_cli_simulate_rejects_other_than_one_sample_per_line(
        tmp_path, capsys, text, message):
    wave = tmp_path / "in.csv"
    wave.write_text(text)
    out_path = tmp_path / "out.csv"
    # numpy's warning of an empty file is not passed on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--preset", "paper-like",
                     "--input", str(wave), "--output", str(out_path)]) == 1
    assert capsys.readouterr().err == f"config error: {wave}: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command, doc, key", [
    ("complexity", {"nl_input_amplitudes": {}}, "'layers'"),
    ("simulate", {"dac_bits": 8}, "'channel'"),
], ids=["model-without-layers", "channel-without-channel"])
def test_cli_names_the_file_it_cannot_read(tmp_path, capsys, command, doc,
                                           key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    wave = tmp_path / "in.csv"
    np.savetxt(wave, np.zeros(8))
    argv = (["complexity", "--model", str(path)] if command == "complexity"
            else ["simulate", "--channel", str(path), "--input", str(wave),
                  "--output", str(tmp_path / "out.csv")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.mark.parametrize("where", ["channel-file", "config-channel"])
@pytest.mark.parametrize("field, value, message", [
    ("dac_bits", 8.5, "dac_bits must be an integer, got 8.5"),
    ("dac_bits", True, "dac_bits must be an integer, got True"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be >= 0, got -1"),
], ids=["dac_bits-float", "dac_bits-bool", "seed-bool", "seed-float",
        "seed-negative"])
def test_cli_rejects_a_bad_channel_integer(tmp_path, capsys, where, field,
                                           value, message):
    doc = channel_to_dict(paper_like_preset())
    doc["channel"][field] = value
    out = tmp_path / "out"
    if where == "channel-file":
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(doc))
        wave = tmp_path / "in.csv"
        np.savetxt(wave, np.zeros(8))
        argv = ["simulate", "--channel", str(path), "--input", str(wave),
                "--output", str(out)]
    else:
        path = write_config(tmp_path / "cfg.json", channel=doc["channel"])
        argv = ["sweep", "--config", str(path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    if where == "channel-file":
        assert str(path) in err
    assert not out.exists()


def test_cli_simulate_rejects_a_negative_seed(tmp_path, capsys):
    wave = tmp_path / "in.csv"
    np.savetxt(wave, np.zeros(8))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--preset", "paper-like", "--seed", "-1",
                 "--input", str(wave), "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: seed must be >= 0, "
                                       "got -1\n")
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 1

    cfg_path = write_config(tmp_path / "cfg.json",
                            sweep={"amplitudes": [0.9, 0.5]})
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1

    cfg_path = write_config(tmp_path / "div.json", train_amplitude=0.5,
                            fit={"iterations": 30, "lr_taps": 1e120})
    with np.errstate(over="ignore", invalid="ignore"):
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert re.fullmatch(r"error: training diverged at iteration \d+\n",
                        capsys.readouterr().err)

    assert main(["simulate", "--preset", "paper-like",
                 "--input", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


def _set_coeffs(value):
    def edit(doc):
        doc["layers"][1]["coeffs"] = value
    return edit


def _nest_taps(doc):
    doc["layers"][0]["taps"] = [doc["layers"][0]["taps"]]


def _list_amplitudes(doc):
    doc["nl_input_amplitudes"] = []


@pytest.mark.parametrize("command, edit, message", [
    ("complexity", _set_coeffs([1, 2]),
     "polynomial coefficients must be an order -> value mapping, not list"),
    ("complexity", _set_coeffs(None),
     "polynomial coefficients must be an order -> value mapping, not "
     "NoneType"),
    ("complexity", _set_coeffs({"3": "x"}),
     "could not convert string to float: 'x'"),
    ("complexity", _nest_taps, "FIR taps must be a 1-D array"),
    ("sweep-fixed", _list_amplitudes,
     "nl_input_amplitudes must be a block -> amplitude mapping, not list"),
    ("sweep-fixed", _nest_taps, "FIR taps must be a 1-D array"),
], ids=["coeffs-list", "coeffs-null", "coeff-string", "nested-taps",
        "amplitudes-list", "artifact-nested-taps"])
def test_cli_names_the_file_of_a_malformed_model(tmp_path, capsys, command,
                                                 edit, message):
    path = write_artifact(tmp_path / "a.json", {1: 0.5})
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    argv = (["complexity", "--model", str(path)] if command == "complexity"
            else ["sweep-fixed", "--config",
                  str(write_config(tmp_path / "cfg.json")),
                  "--artifact", str(path), "--out", str(tmp_path / "o")])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


def test_cli_train_exits_2_when_the_capture_cannot_be_aligned(tmp_path):
    # an MZM with a tiny V_pi folds the drive over many periods, so the
    # capture no longer correlates with the signal
    channel = channel_to_dict(paper_like_preset())["channel"]
    channel["mzm"] = {"v_pi": 0.001}
    cfg_path = write_config(tmp_path / "cfg.json",
                            signal={"n_symbols": 256}, fit={"iterations": 20},
                            train_amplitude=0.9, channel=channel)
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    src = str(Path(whdpd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    done = subprocess.run([sys.executable, "-m", "whdpd.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: correlation peak below floor; alignment "
                           "ambiguous\n")


def test_cli_sweep_exits_2_when_the_capture_cannot_be_aligned(tmp_path,
                                                              capsys):
    # the sweep twin of the train case: the failed points are rows of the
    # report, and the sweep exits 2 naming how many failed and why
    channel = channel_to_dict(paper_like_preset())["channel"]
    channel["mzm"] = {"v_pi": 0.001}
    cfg_path = write_config(tmp_path / "cfg.json",
                            signal={"n_symbols": 256}, fit={"iterations": 20},
                            sweep={"amplitudes": [0.9]}, channel=channel)
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: capture could not be aligned "
                                       "at 2 sweep point(s)\n")
    with open(tmp_path / "o" / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["mode"] for row in rows] == [
        "no-dpd", "linear!error:AlignmentError", "wh!error:AlignmentError"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--bogus"], [], ["train", "--seed", "x"],
    ["train", "--preset", "paper-like"], ["sweep", "--preset", "paper-like"],
    ["sweep-fixed", "--preset", "paper-like", "--artifact", "a.json"],
    ["simulate", "--input", "in.csv", "--output", "out.csv"],
    ["simulate", "--channel", "c.json", "--preset", "paper-like",
     "--input", "in.csv", "--output", "out.csv"],
], ids=["unknown-flag", "no-subcommand", "bad-seed", "train-preset",
        "sweep-preset", "sweep-fixed-preset", "simulate-no-channel",
        "simulate-channel-and-preset"])
def test_cli_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_build_config_maps_sections_onto_fields():
    cfg, _ = build_config({"signal": {"n_symbols": 64, "rolloff": 0.3},
                           "model": {"k1": 5},
                           "sweep": {"amplitudes": [0.5], "modes": ["wh"]},
                           "seed": 4})
    assert (cfg.n_symbols, cfg.rolloff, cfg.k1, cfg.k2) == (64, 0.3, 5, 15)
    assert cfg.amplitudes == (0.5,) and cfg.modes == ("wh",)
    assert cfg.seed == 4
    assert build_config({"seed": 4}, seed=9)[0].seed == 9


@pytest.mark.parametrize("doc", [
    {"signal": {"n_symbol": 64}},
    {"model": {"k": 7}},
    {"sweep": {"amplitude": [0.5]}},
    {"signal": {"seed": 1}},
    {"fit": {"beta1": 0.8}},
    {"fit": {"tol_window": 5}},
    {"fit": {"ridge": 0.1}},
], ids=["signal", "model", "sweep", "repeated", "fit-beta1",
        "fit-tol_window", "fit-ridge"])
def test_build_config_rejects_unknown_or_repeated_keys(doc):
    with pytest.raises(TypeError):
        build_config(doc)


@pytest.mark.parametrize("doc, message", [
    ({"fit": {"lr_nl": -1.0}}, "lr_nl must be finite and >= 0"),
    ({"fit": {"lr_taps": float("nan")}}, "lr_taps must be finite and >= 0"),
    ({"fit": {"lr_taps": float("inf")}}, "lr_taps must be finite and >= 0"),
    ({"fit": {"tol": 0}}, "tol must be finite and > 0"),
    ({"fit": {"tol": float("nan")}}, "tol must be finite and > 0"),
    ({"fit": {"iterations": 0}}, "iteration budget must be >= 1"),
    ({"model": {"k1": 0}}, "k1 must be >= 1"),
    ({"model": {"k2": -3}}, "k2 must be >= 1"),
    ({"fit": {"iterations": 2.5}}, "iterations must be an integer"),
    ({"fit": {"iterations": True}}, "iterations must be an integer"),
    ({"fit": {"iterations": float("inf")}}, "iterations must be an integer"),
    ({"model": {"k1": 2.5}}, "k1 must be an integer"),
    ({"model": {"k2": True}}, "k2 must be an integer"),
    ({"sweep": {"amplitudes": [float("nan")]}},
     "amplitudes must all be finite and > 0"),
    ({"sweep": {"amplitudes": [0.5, float("inf")]}},
     "amplitudes must all be finite and > 0"),
    ({"channel": "lab"}, "unknown channel preset 'lab'"),
    ({"signal": {"n_symbols": 256.5}}, "n_symbols must be an integer"),
    ({"signal": {"samples_per_symbol": 2.5}},
     "samples_per_symbol must be an integer"),
    ({"signal": {"samples_per_symbol": True}},
     "samples_per_symbol must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"signal": {"order": 16.0}}, "order must be an integer"),
    ({"signal": {"span_symbols": 16.0}}, "span_symbols must be an integer"),
    ({"train_amplitude": float("inf")}, "train_amplitude is inf"),
    ({"train_amplitude": "0.5"}, "train_amplitude is '0.5'"),
    ({"sweep": {"amplitudes": []}}, "amplitudes must not be empty"),
    ({"sweep": {"modes": []}}, "modes must not be empty"),
    ({"signal": {"n_symbols": 0}}, "n_symbols must be >= 1"),
    ({"signal": {"n_symbols": -5}}, "n_symbols must be >= 1"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["lr_nl-negative", "lr_taps-nan", "lr_taps-inf", "tol-zero",
        "tol-nan", "iterations-zero", "k1-zero", "k2-negative",
        "iterations-float", "iterations-bool", "iterations-inf", "k1-float",
        "k2-bool", "amplitude-nan", "amplitude-inf", "unknown-preset",
        "n_symbols-float", "samples_per_symbol-float",
        "samples_per_symbol-bool", "seed-float", "order-float",
        "span_symbols-float", "train_amplitude-inf",
        "train_amplitude-string", "amplitudes-empty", "modes-empty",
        "n_symbols-zero", "n_symbols-negative", "seed-negative"])
def test_build_config_rejects_bad_values(doc, message):
    with pytest.raises(ValueError, match=message):
        build_config(doc)


def test_config_counts_accept_numpy_integers():
    cfg = ExperimentConfig(k1=np.int64(5),
                           fit=FitConfig(iterations=np.int32(3)))
    assert (cfg.k1, cfg.fit.iterations) == (5, 3)


@pytest.mark.parametrize("command, over, message", [
    ("train", {"model": {"k1": 0}}, "k1 must be >= 1"),
    ("sweep", {"model": {"k1": 0}}, "k1 must be >= 1"),
    ("train", {"fit": {"lr_nl": -1.0}}, "lr_nl must be finite"),
    ("train", {"fit": {"lr_taps": float("nan")}}, "lr_taps must be finite"),
    ("sweep", {"sweep": {"amplitudes": [float("nan")]}},
     "amplitudes must all be finite"),
    ("train", {"train_amplitude": float("inf")},
     "config error: drive amplitude must be > 0 and finite: "
     "train_amplitude is inf"),
    ("train", {"train_amplitude": "0.5"},
     "config error: drive amplitude must be > 0 and finite: "
     "train_amplitude is '0.5'"),
    ("train", {"signal": {"n_symbols": 256.5}},
     "config error: n_symbols must be an integer"),
    ("sweep", {"signal": {"samples_per_symbol": 2.5}},
     "config error: samples_per_symbol must be an integer"),
    ("sweep", {"seed": 1.5}, "config error: seed must be an integer"),
    ("sweep", {"channel": {"mzm": {"v_pi": float("nan")}}},
     "config error: v_pi must be > 0 and finite, got nan"),
    ("sweep", {"channel": {"saturation": {"saturation_level": float("nan")}}},
     "config error: saturation_level must be > 0 and finite, got nan"),
    ("sweep", {"channel": {"saturation": {"gain": float("nan")}}},
     "config error: gain must be finite, got nan"),
    ("sweep", {"channel": {"dac_bits": 8, "dac_full_scale": float("nan")}},
     "config error: dac_full_scale must be > 0 and finite, got nan"),
    ("sweep", {"channel": {"noise_snr_db": float("nan")}},
     "config error: noise_snr_db must be finite, got nan"),
    ("sweep", {"channel": {"noise_snr_db": -float("inf")}},
     "config error: noise_snr_db must be finite, got -inf"),
    ("train", {"sweep": {"amplitudes": []}},
     "config error: amplitudes must not be empty"),
    ("sweep", {"sweep": {"amplitudes": []}},
     "config error: amplitudes must not be empty"),
    ("train", {"sweep": {"modes": []}},
     "config error: modes must not be empty"),
    ("sweep", {"sweep": {"modes": []}},
     "config error: modes must not be empty"),
    ("train", {"signal": {"n_symbols": -5}},
     "config error: n_symbols must be >= 1"),
    ("sweep", {"signal": {"n_symbols": 0}},
     "config error: n_symbols must be >= 1"),
    ("sweep", {"seed": -1}, "config error: seed must be >= 0, got -1"),
    ("train", {"seed": -1}, "config error: seed must be >= 0, got -1"),
], ids=["train-k1", "sweep-k1", "train-lr_nl", "train-lr_taps-nan",
        "sweep-amplitude-nan", "train-amplitude-inf", "train-amplitude-string",
        "train-n_symbols-float", "sweep-samples_per_symbol-float",
        "sweep-seed-float", "sweep-v_pi-nan", "sweep-saturation_level-nan",
        "sweep-gain-nan", "sweep-dac_full_scale-nan",
        "sweep-noise_snr_db-nan", "sweep-noise_snr_db-minus-inf",
        "train-amplitudes-empty", "sweep-amplitudes-empty",
        "train-modes-empty", "sweep-modes-empty", "train-n_symbols-negative",
        "sweep-n_symbols-zero", "sweep-seed-negative", "train-seed-negative"])
def test_cli_rejects_bad_config_value(tmp_path, capsys, command, over,
                                      message):
    cfg_path = write_config(tmp_path / "cfg.json", **over)
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_runs_the_config_channel(tmp_path):
    channel = channel_to_dict(identity_channel())["channel"]
    cfg_path = write_config(tmp_path / "cfg.json", channel=channel,
                            sweep={"amplitudes": [0.5], "modes": ["no-dpd"]})
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["snr_db"] for row in rows] == ["100"]


def test_readme_examples_parse():
    # the example config builds, and every whdpd command line in the README
    # parses, so a removed key or flag cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = re.search(r"Example config:\s*```json\n(.*?)```", readme,
                       re.S).group(1)
    build_config(json.loads(config))
    lines = [line for line in readme.replace("\\\n", " ").splitlines()
             if line.startswith("whdpd ")]
    assert len(lines) >= 5
    parser = make_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_version_is_the_project_version():
    pyproject = (Path(__file__).resolve().parents[1]
                 / "pyproject.toml").read_text()
    version = re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)
    assert whdpd.__version__ == version


def test_build_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="'sed'"):
        build_config({"sed": 3})


def test_build_config_rejects_freeze_nonlinear():
    with pytest.raises(ConfigError, match="--linear-only"):
        build_config({"fit": {"freeze_nonlinear": True}})


def test_cli_train_rejects_config_typo(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json",
                            signal={"n_symbol": 1024})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "n_symbol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_channel_key_typo(tmp_path, capsys):
    channel = channel_to_dict(paper_like_preset())["channel"]
    channel["noise_snr"] = channel.pop("noise_snr_db")
    cfg_path = write_config(tmp_path / "cfg.json", channel=channel)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "noise_snr" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    ch_path = tmp_path / "channel.json"
    ch_path.write_text(json.dumps({"channel": channel}))
    wave = tmp_path / "in.csv"
    np.savetxt(wave, np.zeros(8))
    assert main(["simulate", "--channel", str(ch_path), "--input", str(wave),
                 "--output", str(tmp_path / "out.csv")]) == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("drive", [0, -0.5])
def test_cli_train_rejects_non_positive_drive(tmp_path, capsys, drive):
    cfg_path = write_config(tmp_path / "cfg.json", train_amplitude=drive)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "config error: drive amplitude must be > 0" in \
        capsys.readouterr().err


def test_cli_sweep_exits_2_on_divergence_and_keeps_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "div.json",
                            fit={"iterations": 30, "lr_taps": 1e120})
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    # the learning rates reach the WH fit only: linear-only DPD is solved
    assert capsys.readouterr().err == ("error: training diverged at 1 sweep "
                                       "point(s)\n")
    with open(tmp_path / "o" / "report.csv", newline="") as f:
        rows = {r["mode"]: r for r in csv.DictReader(f)}
    assert len(rows) == 3
    assert "wh!error:TrainingDivergedError" in rows
    linear = rows["linear"]
    assert linear["error"] == ""
    assert math.isfinite(float(linear["snr_db"]))
    assert math.isfinite(float(linear["final_loss"]))
    assert linear["iterations"] == "1"


def test_matched_rms_comparison_stops_at_the_first_match():
    # a tolerance that the training drive already meets: no bisection step
    res = matched_rms_comparison(tiny_cfg(channel=paper_like_preset()),
                                 drive=0.9, rms_tol_db=100.0)
    assert res["wh_v_in"] == 0.9


def test_matched_rms_gap_is_in_db_of_amplitude(monkeypatch):
    calls = _count_dpd(monkeypatch)
    res = matched_rms_comparison(tiny_cfg(channel=paper_like_preset()),
                                 drive=0.9, rms_tol_db=0.05)
    assert res["rms_gap_db"] == 20.0 * math.log10(res["wh_out_rms"]
                                                  / res["linear_out_rms"])
    assert abs(res["rms_gap_db"]) <= 0.05 and res["wh_v_in"] != 0.9
    # each artifact is pre-distorted once, however many drives it bisects
    assert len(calls) == 4


def test_matched_rms_comparison_raises_when_unmatched():
    cfg = tiny_cfg(channel=paper_like_preset())
    with pytest.raises(ValueError, match=r"output RMS .* gap of"):
        matched_rms_comparison(cfg, drive=0.9, rms_tol_db=1e-12, max_iter=1)


# --- behavioral properties on the saturating preset -----------------------

def test_rescaled_fixed_sweep_at_double_drive_not_worse():
    cfg = ExperimentConfig(n_symbols=4096, fit=FitConfig(iterations=800),
                           amplitudes=(0.2, 0.4))
    bench = Workbench(cfg)
    artifact = bench.train(0.2)
    fixed = sweep_amplitude_with_fixed_dpd(cfg, artifact)
    rescaled = sweep_amplitude_with_fixed_dpd(cfg, artifact, rescale=True)
    # at 2x the training amplitude the drive-rescaled coefficients should
    # compensate at least as well as the frozen ones
    assert rescaled.rows[1]["snr_db"] >= fixed.rows[1]["snr_db"]


def test_linear_dpd_snr_non_increasing_past_half_saturation():
    cfg = ExperimentConfig(n_symbols=2048, k1=11, k2=11,
                           fit=FitConfig(iterations=400),
                           amplitudes=(0.6, 0.9, 1.3))
    bench = Workbench(cfg)
    snrs = []
    for v in cfg.amplitudes:
        art = bench.train(v, freeze_nonlinear=True)
        snrs.append(bench.evaluate(art, v)["snr_db"])
    assert all(b <= a for a, b in zip(snrs, snrs[1:])), snrs
