"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value. Run with `pytest tests/test_acceptance.py -s`.
"""

import time

import numpy as np
import pytest

from whdpd.dsp import ConstellationSpec, RrcSpec, SampledSignal, qam_modulate, \
    shape_pulse, snr_db, synchronize
from whdpd.experiment import (ExperimentConfig, Workbench,
                              matched_rms_comparison, run_experiment,
                              sweep_amplitude_with_fixed_dpd)
from whdpd.kernels import fir_same
from whdpd.learn import (FitConfig, apply_dpd, indirect_learn, loss,
                         rescale_nl_coeff, wh_backward)
from whdpd.model import (FirBlock, PolyNlBlock, WhModel, complexity, nl_apply,
                         wh_forward)
from whdpd.txsim import SaturationSpec, TxChannel, simulate_tx


def sig(samples):
    return SampledSignal(np.asarray(samples, dtype=float))


# --- criterion 1: gradient exactness --------------------------------------

def random_instance(rng):
    k_choices = (1, 3, 5, 9)
    n = int(rng.choice((8, 32, 64)))
    pattern = rng.integers(0, 4)
    layers = []
    if pattern == 0:
        layers = [FirBlock(rng.normal(size=rng.choice(k_choices)))]
    elif pattern == 1:
        layers = [FirBlock(rng.normal(size=rng.choice(k_choices))),
                  PolyNlBlock({3: rng.normal() * 0.3})]
    elif pattern == 2:
        layers = [FirBlock(rng.normal(size=rng.choice(k_choices))),
                  PolyNlBlock({3: rng.normal() * 0.3, 2: rng.normal() * 0.2}),
                  FirBlock(rng.normal(size=rng.choice(k_choices)))]
    else:
        layers = [PolyNlBlock({3: rng.normal() * 0.3}),
                  FirBlock(rng.normal(size=rng.choice(k_choices)))]
    model = WhModel(layers)
    x = sig(rng.normal(size=n))
    ref = sig(rng.normal(size=n))
    return model, x, ref


def test_criterion_1_gradient_exactness():
    rng = np.random.default_rng(100)
    t0 = time.monotonic()
    worst = 0.0
    eps = 1e-6
    for _ in range(100):
        model, x, ref = random_instance(rng)
        n = x.samples.size
        _, inter = wh_forward(model, x)
        grads = wh_backward(model, inter, ref)

        def j(m):
            out, _ = wh_forward(m, x)
            return loss(out, ref) / n

        for li, block in enumerate(model.layers):
            if isinstance(block, FirBlock):
                keys = range(block.taps.size)
            else:
                keys = list(block.coeffs)
            for key in keys:
                mp, mm = model.copy(), model.copy()
                if isinstance(block, FirBlock):
                    mp.layers[li].taps[key] += eps
                    mm.layers[li].taps[key] -= eps
                    analytic = grads.per_layer[li][key]
                else:
                    mp.layers[li].coeffs[key] += eps
                    mm.layers[li].coeffs[key] -= eps
                    analytic = grads.per_layer[li][key]
                fd = (j(mp) - j(mm)) / (2 * eps)
                err = abs(analytic - fd)
                tol = max(1e-6 * abs(fd), 1e-9)
                assert err <= tol, (li, key, analytic, fd)
                worst = max(worst, err / max(tol, 1e-300))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: gradients match finite differences on 100 "
          f"instances (worst err/tol {worst:.3f}, {elapsed:.1f} s)")


# --- criterion 2: identity round trip -------------------------------------

def test_criterion_2_identity_round_trip():
    rng = np.random.default_rng(101)
    x = sig(rng.normal(size=4096))
    model = WhModel.lnl(401, 401)
    out, _ = wh_forward(model, x)
    assert np.array_equal(out.samples, x.samples)
    assert loss(out, x) == 0.0
    print("\nPASS criterion 2: unit-impulse/zero-coefficient model is exactly "
          "the identity, loss = 0")


# --- criterion 3: exact inverse recovery ----------------------------------

def test_criterion_3_inverse_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    sym = qam_modulate(rng.integers(0, 2, 8192 * 4), ConstellationSpec(16))
    i_rail, _ = shape_pulse(sym, RrcSpec(0.2, 16, 2))
    tx = i_rail.with_samples(
        i_rail.samples / np.max(np.abs(i_rail.samples)) * 0.8)
    # noiseless channel with a mild WH-expressible inverse: gentle FIRs
    # around a weak cubic compression
    ch = TxChannel(pre_fir=FirBlock([0.05, 1.0, 0.12]),
                   saturation=SaturationSpec("cubic", 2.0, 1.0),
                   post_fir=FirBlock([-0.04, 1.0, 0.08]),
                   noise_snr_db=None)
    art = indirect_learn(tx, lambda s: simulate_tx(ch, s),
                         WhModel.lnl(21, 21), FitConfig(iterations=1500))
    z = apply_dpd(art, tx)
    out = simulate_tx(ch, z)
    _, aligned = synchronize(tx, out)
    snr = snr_db(tx.samples, aligned.samples)
    elapsed = time.monotonic() - t0
    assert snr >= 40.0
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: post-DPD SNR {snr:.1f} dB >= 40 dB "
          f"({elapsed:.1f} s at 8192 symbols)")


# --- criterion 4: linear-channel null test --------------------------------

def test_criterion_4_linear_channel_null():
    rng = np.random.default_rng(103)
    sym = qam_modulate(rng.integers(0, 2, 4096 * 4), ConstellationSpec(16))
    i_rail, _ = shape_pulse(sym, RrcSpec(0.2, 16, 2))
    tx = i_rail.with_samples(
        i_rail.samples / np.max(np.abs(i_rail.samples)) * 0.5)
    h = np.array([0.1, 0.9, 0.2, -0.05])

    def channel(s):
        return s.with_samples(fir_same(s.samples, h))

    art = indirect_learn(tx, channel, WhModel.lnl(21, 21),
                         FitConfig(iterations=1500))
    a3 = [b.coeffs[3] for b in art.model.layers
          if isinstance(b, PolyNlBlock)][0]
    assert abs(a3) < 1e-3
    print(f"\nPASS criterion 4: pure-FIR channel fits |a3| = {abs(a3):.2e} "
          "< 1e-3")


# --- criteria 5, 6, 8: paper-like preset behavior -------------------------

@pytest.fixture(scope="module")
def preset_cfg():
    return ExperimentConfig(n_symbols=4096, fit=FitConfig(iterations=800),
                            amplitudes=(0.2, 0.4, 0.6, 0.9, 1.3))


def test_criterion_5_wh_beats_linear_at_matched_output_rms(preset_cfg):
    res = matched_rms_comparison(preset_cfg, drive=1.3)
    assert res["linear_snr_db"] <= 25.0  # strongly saturated operating point
    assert abs(res["rms_gap_db"]) <= 0.2
    gain = res["wh_snr_db"] - res["linear_snr_db"]
    assert gain >= 1.0
    print(f"\nPASS criterion 5: WH {res['wh_snr_db']:.2f} dB vs linear "
          f"{res['linear_snr_db']:.2f} dB at matched output RMS "
          f"(gap {gain:.2f} dB >= 1 dB, RMS mismatch "
          f"{res['rms_gap_db']:.3f} dB)")


def test_criterion_6_papr_backoff_mechanism(preset_cfg):
    bench = Workbench(preset_cfg)
    v = 0.9
    lin = bench.evaluate(bench.train(v, freeze_nonlinear=True), v)
    wh = bench.evaluate(bench.train(v), v)
    assert wh["papr_db"] > lin["papr_db"]
    assert wh["out_rms"] < lin["out_rms"]
    print(f"\nPASS criterion 6: at equal drive, PAPR {wh['papr_db']:.2f} > "
          f"{lin['papr_db']:.2f} dB and output RMS {wh['out_rms']:.4f} < "
          f"{lin['out_rms']:.4f}")


def test_criterion_8_fixed_artifact_sweep_unimodal(preset_cfg):
    bench = Workbench(preset_cfg)
    art = bench.train(preset_cfg.amplitudes[0])
    report = sweep_amplitude_with_fixed_dpd(preset_cfg, art)
    snrs = [r["snr_db"] for r in report.rows]
    peak = int(np.argmax(snrs))
    assert 0 < peak < len(snrs) - 1
    assert all(a < b for a, b in zip(snrs[:peak], snrs[1:peak + 1]))
    assert all(a > b for a, b in zip(snrs[peak:], snrs[peak + 1:]))
    print(f"\nPASS criterion 8: fixed-artifact SNR curve "
          f"{[round(s, 2) for s in snrs]} rises then falls "
          f"(peak at grid point {peak})")


# --- criterion 7: complexity formula --------------------------------------

def test_criterion_7_complexity_formula():
    rep = complexity(WhModel.lnl(401, 401, a=0.1))
    assert rep.multiplications_per_sample == 805
    assert rep.additions_per_sample == 801
    print("\nPASS criterion 7: K1=K2=401 cubic model costs exactly "
          "(805, 801) per sample")


# --- criterion 9: determinism ---------------------------------------------

def test_criterion_9_bitwise_deterministic_reports(tmp_path):
    cfg = ExperimentConfig(n_symbols=1024, k1=7, k2=7,
                           fit=FitConfig(iterations=150), amplitudes=(0.5,))
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b
    print("\nPASS criterion 9: identical config + seed gives bitwise-"
          "identical CSV reports")


# --- criterion 10: coefficient-rescaling identity -------------------------

def test_criterion_10_rescaling_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0.1, 3.0)
        x = rng.normal(size=64)
        lhs = nl_apply(PolyNlBlock.cubic(rescale_nl_coeff(a, s)),
                       sig(x)).samples
        rhs = nl_apply(PolyNlBlock.cubic(a), sig(s * x)).samples / s
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    print(f"\nPASS criterion 10: rescaling identity holds on 50 random "
          f"draws (worst deviation {worst:.2e})")
