import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import whdpd
from whdpd.dsp import SampledSignal, snr_db
from whdpd.kernels import fir_same
from whdpd.model import FirBlock, PolyNlBlock, WhModel, wh_forward
from whdpd.txsim import (MzmSpec, SaturationSpec, TxChannel, channel_from_dict,
                         channel_to_dict, paper_like_preset, quantize,
                         saturate, simulate_tx)


def sig(samples):
    return SampledSignal(np.asarray(samples, dtype=float))


# --- quantizer ------------------------------------------------------------

def test_quantize_one_bit_two_levels():
    x = sig(np.linspace(-0.9, 0.9, 19))
    out = quantize(x, 1, 1.0)
    assert set(np.round(out.samples, 12)) <= {0.5, -0.5}
    assert np.all(out.samples[x.samples >= 0] == 0.5)


def test_quantize_lsb_bound():
    rng = np.random.default_rng(0)
    x = sig(rng.uniform(-0.99, 0.99, 1000))
    out = quantize(x, 16, 1.0)
    assert np.max(np.abs(out.samples - x.samples)) <= 1.0 / 2 ** 16


def test_quantize_sine_sqnr():
    t = np.arange(65536)
    x = sig(0.999 * np.sin(2 * np.pi * t * 0.01234))
    out = quantize(x, 8, 1.0)
    sqnr = snr_db(x.samples, out.samples)
    assert sqnr == pytest.approx(6.02 * 8 + 1.76, abs=2.0)


def test_quantize_clips():
    out = quantize(sig([10.0, -10.0]), 4, 1.0)
    assert np.max(np.abs(out.samples)) <= 1.0


def test_quantize_rejects_bad_args():
    with pytest.raises(ValueError):
        quantize(sig([1.0]), 0, 1.0)
    with pytest.raises(ValueError):
        quantize(sig([1.0]), 8, 0.0)


# --- saturation -----------------------------------------------------------

def test_saturate_odd_through_zero():
    spec = SaturationSpec("arctan", 1.0, 2.0)
    assert saturate(spec, sig([0.0])).samples[0] == 0.0
    x = sig(np.linspace(-3, 3, 31))
    y = saturate(spec, x).samples
    assert np.allclose(y, -saturate(spec, sig(-x.samples)).samples)


def test_saturate_arctan_asymptote():
    spec = SaturationSpec("arctan", 0.7, 2.0)
    x = 50.0 * spec.saturation_level / spec.gain
    y = saturate(spec, sig([x])).samples[0]
    assert y < spec.saturation_level
    assert y == pytest.approx(spec.saturation_level, rel=0.01)


def test_saturate_small_signal_slope():
    for kind in ("arctan", "tanh", "cubic"):
        spec = SaturationSpec(kind, 1.0, 3.0)
        x = sig([0.01 * spec.saturation_level])
        y = saturate(spec, x).samples[0]
        assert y == pytest.approx(spec.gain * x.samples[0], rel=1e-3)


def test_saturate_monotone_compression():
    spec = SaturationSpec("tanh", 1.0, 1.0)
    x = np.linspace(0, 5, 100)
    y = saturate(spec, sig(x)).samples
    assert np.all(np.diff(y) > 0)
    assert np.all(y[1:] < spec.gain * x[1:])


def test_saturation_spec_validation():
    with pytest.raises(ValueError):
        SaturationSpec("rapp", 1.0, 1.0)
    with pytest.raises(ValueError):
        SaturationSpec("arctan", 0.0, 1.0)


# --- full chain -----------------------------------------------------------

def test_identity_channel_is_pure_gain():
    ch = TxChannel(saturation=SaturationSpec("arctan", 1e6, 2.5))
    rng = np.random.default_rng(1)
    x = sig(rng.normal(size=256) * 0.3)
    out = simulate_tx(ch, x)
    assert np.allclose(out.samples, 2.5 * x.samples, rtol=1e-9)


def test_channel_matches_equivalent_wh_model():
    rng = np.random.default_rng(2)
    h1 = rng.normal(size=5) * 0.2
    h1[2] += 1.0
    h2 = rng.normal(size=3) * 0.2
    h2[1] += 1.0
    sat = 2.0
    ch = TxChannel(pre_fir=FirBlock(h1),
                   saturation=SaturationSpec("cubic", sat, 1.0),
                   post_fir=FirBlock(h2))
    model = WhModel([FirBlock(h1),
                     PolyNlBlock({3: -1.0 / (3.0 * sat * sat)}),
                     FirBlock(h2)])
    x = sig(rng.normal(size=512) * 0.4)
    out_ch = simulate_tx(ch, x)
    out_wh, _ = wh_forward(model, x)
    assert np.max(np.abs(out_ch.samples - out_wh.samples)) < 1e-10


def test_noise_level_calibrated():
    ch = TxChannel(saturation=SaturationSpec("arctan", 1e6, 1.0),
                   noise_snr_db=30.0, seed=7)
    rng = np.random.default_rng(3)
    x = sig(rng.normal(size=65536) * 0.3)
    out = simulate_tx(ch, x)
    assert snr_db(x.samples, out.samples) == pytest.approx(30.0, abs=0.3)


def test_simulate_tx_deterministic_per_seed():
    ch = paper_like_preset(seed=42)
    rng = np.random.default_rng(4)
    x = sig(rng.normal(size=1024) * 0.4)
    out1 = simulate_tx(ch, x)
    out2 = simulate_tx(ch, x)
    assert np.array_equal(out1.samples, out2.samples)
    out3 = simulate_tx(paper_like_preset(seed=43), x)
    assert not np.array_equal(out1.samples, out3.samples)


def _noise_channels(seed, snr):
    preset = paper_like_preset(seed=seed)
    for dac_bits in (preset.dac_bits, None):
        for mzm in (None, MzmSpec(v_pi=1.5)):
            yield replace(preset, dac_bits=dac_bits, mzm=mzm,
                          noise_snr_db=snr)


@pytest.mark.parametrize("snr", [20.0, 35.0, 50.0])
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_a_held_draw_gives_the_seeds_own_noise_bit_for_bit(n, snr):
    x = sig(np.random.default_rng(8).normal(size=n) * 0.4)
    for ch in _noise_channels(11, snr):
        normal = np.random.default_rng(ch.seed).standard_normal(n)
        held = simulate_tx(ch, x, normal).samples
        assert np.array_equal(held, simulate_tx(ch, x).samples)
        clean = simulate_tx(replace(ch, noise_snr_db=None), x).samples
        sigma = np.sqrt(np.mean(clean ** 2) * 10.0 ** (-snr / 10.0))
        drawn = np.random.default_rng(ch.seed).normal(0.0, sigma, n)
        assert np.array_equal(held, clean + drawn)


@pytest.mark.parametrize("size", [7, 9])
def test_a_held_draw_of_the_wrong_length_raises(size):
    with pytest.raises(ValueError, match=f"noise draw has {size} samples, "
                       "the signal 8"):
        simulate_tx(paper_like_preset(), sig(np.ones(8) * 0.3),
                    np.zeros(size))


def _chain_by_expressions(channel, v, normal):
    """simulate_tx's samples written as the chain's formulas, one new
    array per operation."""
    if channel.dac_bits is not None:
        bits = channel.dac_bits
        delta = 2.0 * channel.dac_full_scale / 2 ** bits
        idx = np.clip(np.floor(v / delta), -(2 ** (bits - 1)),
                      2 ** (bits - 1) - 1)
        v = (idx + 0.5) * delta
    v = fir_same(v, channel.pre_fir.taps)
    s, g = channel.saturation.saturation_level, channel.saturation.gain
    if channel.saturation.kind == "arctan":
        v = (2.0 * s / np.pi) * np.arctan(np.pi * g * v / (2.0 * s))
    elif channel.saturation.kind == "tanh":
        v = s * np.tanh(g * v / s)
    else:
        v = g * (v - v ** 3 / (3.0 * s * s))
    v = fir_same(v, channel.post_fir.taps)
    if channel.mzm is not None:
        v = np.sin(np.pi * v / (2.0 * channel.mzm.v_pi))
    if channel.noise_snr_db is not None:
        p_noise = np.mean(v ** 2) * 10.0 ** (-channel.noise_snr_db / 10.0)
        v = v + np.sqrt(p_noise) * normal
    return v


def _stage_channels():
    preset = paper_like_preset(seed=4)
    for kind in ("arctan", "tanh", "cubic"):
        for dac_bits in (preset.dac_bits, None):
            for mzm in (None, MzmSpec(v_pi=1.3)):
                for noise in (None, 30.0):
                    yield replace(preset, saturation=SaturationSpec(
                        kind, 1.2, 0.9), dac_bits=dac_bits, mzm=mzm,
                        noise_snr_db=noise)


@pytest.mark.parametrize("n", [1, 33, 4096])
def test_in_place_stages_give_the_expressions_bits(n):
    # every stage after the first writes into the chain's own array; the
    # result is bitwise the formulas' own, over each saturation kind, with
    # and without the DAC, the MZM and the noise
    x = np.random.default_rng(12).normal(size=n) * 0.5
    normal = np.random.default_rng(4).standard_normal(n)
    for ch in _stage_channels():
        got = simulate_tx(ch, sig(x), normal).samples
        assert np.array_equal(got, _chain_by_expressions(ch, x, normal))


def test_a_read_only_input_passes_through_the_chain_untouched():
    x = np.random.default_rng(13).normal(size=512) * 0.5
    normal = np.random.default_rng(5).standard_normal(512)
    for a in (x, normal):
        a.flags.writeable = False
    kept = x.copy(), normal.copy()
    for ch in _stage_channels():
        simulate_tx(ch, sig(x), normal)
        quantize(sig(x), 8, 1.0)
        saturate(ch.saturation, sig(x))
        assert np.array_equal(x, kept[0])
        assert np.array_equal(normal, kept[1])


def test_mzm_transfer():
    ch = TxChannel(saturation=SaturationSpec("arctan", 1e6, 1.0),
                   mzm=MzmSpec(v_pi=1.0))
    x = sig([1.0, 0.5, 0.0])
    out = simulate_tx(ch, x)
    assert np.allclose(out.samples,
                       np.sin(np.pi * x.samples / 2.0), atol=1e-9)


def test_dac_bits_validation():
    with pytest.raises(ValueError):
        TxChannel(dac_bits=0)
    with pytest.raises(ValueError):
        TxChannel(dac_bits=17)


@pytest.mark.parametrize("field, value, message", [
    ("dac_bits", 8.5, "dac_bits must be an integer, got 8.5"),
    ("dac_bits", 8.0, "dac_bits must be an integer, got 8.0"),
    ("dac_bits", True, "dac_bits must be an integer, got True"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be >= 0, got -1"),
], ids=["dac_bits-float", "dac_bits-integral-float", "dac_bits-bool",
        "seed-bool", "seed-float", "seed-negative"])
def test_channel_rejects_a_bad_integer_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        TxChannel(**{field: value})


def test_channel_integer_fields_accept_numpy_integers():
    ch = TxChannel(dac_bits=np.int64(8), seed=np.uint32(3))
    assert (ch.dac_bits, ch.seed) == (8, 3)
    assert simulate_tx(ch, sig([0.1, -0.2])).samples.shape == (2,)


def test_mzm_spec_validation():
    with pytest.raises(ValueError, match="v_pi must be > 0"):
        MzmSpec(v_pi=0)


@pytest.mark.parametrize("make, message", [
    (lambda v: SaturationSpec("arctan", v, 1.0), "saturation_level must be "
     "> 0 and finite"),
    (lambda v: SaturationSpec("arctan", 1.0, v), "gain must be finite"),
    (lambda v: MzmSpec(v_pi=v), "v_pi must be > 0 and finite"),
    (lambda v: TxChannel(dac_bits=8, dac_full_scale=v),
     "dac_full_scale must be > 0 and finite"),
    (lambda v: TxChannel(noise_snr_db=v), "noise_snr_db must be finite"),
], ids=["saturation_level", "gain", "v_pi", "dac_full_scale", "noise_snr_db"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_channel_parts_reject_non_finite_values(make, message, value):
    with pytest.raises(ValueError, match=message):
        make(value)


def test_channel_rejects_a_non_positive_full_scale():
    with pytest.raises(ValueError, match="dac_full_scale must be > 0"):
        TxChannel(dac_full_scale=0.0)


# --- serialization --------------------------------------------------------

def test_channel_dict_has_version():
    doc = channel_to_dict(paper_like_preset())
    assert doc["schema_version"]
    channel_from_dict(doc)


def test_channel_dict_round_trips_every_field():
    channel = TxChannel(dac_bits=6, dac_full_scale=1.2,
                        pre_fir=FirBlock([0.1, 0.8, 0.1]),
                        saturation=SaturationSpec("tanh", 0.9, 1.1),
                        post_fir=FirBlock([0.9, 0.1]), mzm=MzmSpec(v_pi=2.0),
                        noise_snr_db=30.0, seed=4)
    for ch in (channel, paper_like_preset(seed=3), TxChannel()):
        doc = channel_to_dict(ch)
        assert channel_to_dict(channel_from_dict(doc)) == doc


@pytest.mark.parametrize("path, key", [((), "noise_snr"),
                                       (("saturation",), "level"),
                                       (("pre_fir",), "tap")])
def test_channel_from_dict_rejects_unknown_keys(path, key):
    doc = channel_to_dict(paper_like_preset())
    part = doc["channel"]
    for name in path:
        part = part[name]
    part[key] = 1.0
    with pytest.raises(TypeError, match=key):
        channel_from_dict(doc)


def test_channel_from_dict_defaults_missing_keys():
    assert channel_from_dict({"channel": {}}) == TxChannel()


def test_preset_taps_are_windowed_sinc_low_pass():
    # Hamming-windowed sinc at the cutoff, unit DC gain, then the echo tap
    # and unit DC gain again
    n = 15
    m = np.arange(n) - (n - 1) / 2
    for taps, cutoff, echo, delay in ((paper_like_preset().pre_fir.taps,
                                       0.85, 0.04, 3),
                                      (paper_like_preset().post_fir.taps,
                                       0.75, 0.05, 4)):
        h = np.sinc(cutoff * m) * (0.54 - 0.46 * np.cos(2 * np.pi
                                                        * np.arange(n)
                                                        / (n - 1)))
        h /= h.sum()
        h[n // 2 + delay] += echo
        assert np.allclose(taps, h / h.sum(), rtol=0, atol=1e-15)
        assert np.sum(taps) == pytest.approx(1.0, abs=1e-15)


def test_import_does_not_load_scipy():
    src = str(Path(whdpd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    done = subprocess.run([sys.executable, "-c",
                           "import sys, whdpd; "
                           "print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
