import numpy as np
import pytest

from whdpd.dsp import (SNR_CEILING_DB, AlignmentError, ConstellationSpec,
                       RrcSpec, SampledSignal, papr_db, qam_modulate,
                       rms_normalize, rrc_taps, shape_pulse, snr_db,
                       synchronize)


def test_sampled_signal_rejects_empty():
    with pytest.raises(ValueError):
        SampledSignal(np.array([]))


def test_sampled_signal_and_shape_pulse_take_lists():
    s = SampledSignal([1, 2])
    assert s.samples.dtype == np.float64 and s.samples.tolist() == [1.0, 2.0]
    spec = RrcSpec(0.2, 8, 2)
    from_list = shape_pulse([1 + 1j, -1 - 1j], spec)
    from_array = shape_pulse(np.array([1 + 1j, -1 - 1j]), spec)
    for a, b in zip(from_list, from_array):
        assert np.array_equal(a.samples, b.samples)


# --- QAM ------------------------------------------------------------------

def test_qpsk_gray_corner():
    spec = ConstellationSpec(4)
    sym = qam_modulate([0, 0], spec)
    assert sym[0] == pytest.approx((1 + 1j) / np.sqrt(2))


def test_qam16_average_power_near_unity():
    rng = np.random.default_rng(0)
    spec = ConstellationSpec(16)
    bits = rng.integers(0, 2, 65536 * 4)
    sym = qam_modulate(bits, spec)
    assert sym.size == 65536
    assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, rel=0.02)


def test_qam_empty_bits():
    assert qam_modulate([], ConstellationSpec(16)).size == 0


def test_qam_rejects_ragged_bits():
    with pytest.raises(ValueError):
        qam_modulate([0, 1, 1], ConstellationSpec(16))


def _words(order):
    """Every symbol's bits, word w's most significant bit first."""
    b = order.bit_length() - 1
    return [tuple((w >> (b - 1 - i)) & 1 for i in range(b))
            for w in range(order)]


def _gray_table(order):
    """Oracle: bit tuple -> point of square Gray-coded QAM at unit average
    power. Along each axis the i-th level counted down from the positive
    rail, L-1-2i, carries the i-th word of the reflected Gray code (built by
    reflection: 0 before the code of one bit fewer, then 1 before it
    reversed); the first half of a symbol's bits picks the I level."""
    code = [()]
    for _ in range((order.bit_length() - 1) // 2):
        code = [(0,) + c for c in code] + [(1,) + c for c in code[::-1]]
    n = len(code)
    levels = {c: n - 1 - 2 * i for i, c in enumerate(code)}
    table = {bi + bq: complex(li, lq) for bi, li in levels.items()
             for bq, lq in levels.items()}
    scale = np.sqrt(np.mean([abs(p) ** 2 for p in table.values()]))
    return {bits: p / scale for bits, p in table.items()}


@pytest.mark.parametrize("order", [4, 16, 64])
def test_constellation_unit_power_and_bijection(order):
    points = qam_modulate(np.concatenate(_words(order)),
                          ConstellationSpec(order))
    assert points.size == order
    assert len(set(np.round(points, 12))) == order  # bijective
    assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qam_modulate_matches_mapping_table():
    for order in (4, 16, 64):
        table = _gray_table(order)
        points = qam_modulate(np.concatenate(_words(order)),
                              ConstellationSpec(order))
        assert len(table) == order
        for bits, point in zip(_words(order), points):
            assert point == pytest.approx(table[bits], abs=1e-12)


# --- RRC ------------------------------------------------------------------

def test_rrc_symmetry_and_energy():
    taps = rrc_taps(RrcSpec(0.35, 8, 4))
    assert np.allclose(taps, taps[::-1], atol=0)
    assert np.sum(taps ** 2) == pytest.approx(1.0, abs=1e-12)


def test_rrc_center_tap_closed_form():
    beta = 0.2
    taps = rrc_taps(RrcSpec(beta, 16, 2))
    raw = _raw_rrc(beta, 16, 2)
    expected = (1 - beta + 4 * beta / np.pi) / np.linalg.norm(raw)
    assert taps[len(taps) // 2] == pytest.approx(expected, abs=1e-12)


def _raw_rrc(beta, span, sps):
    # independent unnormalized RRC evaluation
    n = span * sps + 1
    t = (np.arange(n) - (n - 1) / 2) / sps
    out = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            out[i] = 1 - beta + 4 * beta / np.pi
        elif abs(abs(ti) - 1 / (4 * beta)) < 1e-12:
            out[i] = (beta / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta)))
        else:
            out[i] = _rrc_formula(beta, ti)
    return out


def _rrc_formula(beta, t):
    # the general RRC expression, 0/0 at t = 0 and t = +-1/(4 beta)
    return (np.sin(np.pi * t * (1 - beta))
            + 4 * beta * t * np.cos(np.pi * t * (1 + beta))) / (
        np.pi * t * (1 - (4 * beta * t) ** 2))


@pytest.mark.parametrize("beta", [0.25, 0.5])
def test_rrc_tap_at_quarter_over_rolloff_is_the_limit(beta):
    # at sps = 2, t = +-1/(4 beta) falls on a tap, where the general formula
    # is 0/0; that tap must equal the formula's limit there (taken as the
    # mean of both sides), relative to the centre tap
    taps = rrc_taps(RrcSpec(beta, 8, 2))
    centre = len(taps) // 2
    k = round(2 / (4 * beta))
    t0, h = 1 / (4 * beta), 1e-6
    limit = 0.5 * (_rrc_formula(beta, t0 - h) + _rrc_formula(beta, t0 + h))
    expected = limit / (1 - beta + 4 * beta / np.pi)
    for i in (centre - k, centre + k):
        assert taps[i] / taps[centre] == pytest.approx(expected, rel=1e-9)


def test_rrc_cascade_is_isi_free():
    # long span so the truncation tail stays below the ISI tolerance
    spec = RrcSpec(0.2, 48, 2)
    taps = rrc_taps(spec)
    rc = np.convolve(taps, taps)
    center = len(rc) // 2
    symbol_spaced = rc[center % spec.samples_per_symbol::spec.samples_per_symbol]
    peak_idx = np.argmax(np.abs(symbol_spaced))
    expected = np.zeros_like(symbol_spaced)
    expected[peak_idx] = rc[center]
    assert np.max(np.abs(symbol_spaced - expected)) < 1e-3


def test_rrc_rejects_bad_rolloff():
    with pytest.raises(ValueError):
        RrcSpec(0.0, 8, 2)
    with pytest.raises(ValueError):
        RrcSpec(1.5, 8, 2)


# --- pulse shaping --------------------------------------------------------

def test_shape_pulse_impulse_reproduces_taps():
    spec = RrcSpec(0.2, 8, 2)
    taps = rrc_taps(spec)
    n_sym = 64
    symbols = np.zeros(n_sym, dtype=complex)
    symbols[n_sym // 2] = 1.0
    i_rail, q_rail = shape_pulse(symbols, spec)
    start = (n_sym // 2) * spec.samples_per_symbol - len(taps) // 2
    assert np.allclose(i_rail.samples[start:start + len(taps)], taps,
                       atol=1e-12)
    assert np.allclose(q_rail.samples, 0.0)


def test_shape_pulse_linearity():
    spec = RrcSpec(0.2, 8, 2)
    rng = np.random.default_rng(3)
    s1 = rng.normal(size=32) + 1j * rng.normal(size=32)
    s2 = rng.normal(size=32) + 1j * rng.normal(size=32)
    a, b = 1.7, -0.4
    i1, _ = shape_pulse(s1, spec)
    i2, _ = shape_pulse(s2, spec)
    i12, _ = shape_pulse(a * s1 + b * s2, spec)
    assert np.max(np.abs(i12.samples - a * i1.samples - b * i2.samples)) < 1e-10


def test_shape_pulse_length_at_paper_scale():
    rng = np.random.default_rng(0)
    spec = ConstellationSpec(16)
    sym = qam_modulate(rng.integers(0, 2, 65536 * 4), spec)
    i_rail, q_rail = shape_pulse(sym, RrcSpec(0.2, 16, 2))
    assert i_rail.samples.size == 131072
    assert q_rail.samples.size == 131072


def test_shape_pulse_rejects_empty():
    with pytest.raises(ValueError):
        shape_pulse(np.array([], dtype=complex), RrcSpec(0.2, 8, 2))


# --- synchronization ------------------------------------------------------

def _ref_signal(n=512, seed=0):
    rng = np.random.default_rng(seed)
    return SampledSignal(rng.normal(size=n))


def test_synchronize_constructed_delay():
    ref = _ref_signal()
    rx = ref.with_samples(np.roll(ref.samples, 7))
    delay, aligned = synchronize(ref, rx)
    assert delay == 7
    assert np.allclose(aligned.samples, ref.samples)


def test_synchronize_identity():
    ref = _ref_signal()
    delay, aligned = synchronize(ref, ref)
    assert delay == 0
    assert np.array_equal(aligned.samples, ref.samples)


def test_synchronize_noisy_delay():
    ref = _ref_signal()
    rng = np.random.default_rng(9)
    noise = rng.normal(size=ref.samples.size)
    noise *= np.linalg.norm(ref.samples) / np.linalg.norm(noise) / 10  # 20 dB
    rx = ref.with_samples(np.roll(ref.samples, 7) + noise)
    delay, _ = synchronize(ref, rx)
    assert delay == 7


def test_synchronize_roundtrip_on_delay_grid():
    ref = _ref_signal(256)
    for d in range(0, 64, 9):
        rx = ref.with_samples(np.roll(ref.samples, d))
        delay, aligned = synchronize(ref, rx)
        assert delay == d
        assert np.allclose(aligned.samples, ref.samples)


def test_synchronize_ambiguous_raises():
    ref = _ref_signal()
    rng = np.random.default_rng(10)
    rx = ref.with_samples(rng.normal(size=ref.samples.size))
    with pytest.raises(AlignmentError):
        synchronize(ref, rx, min_peak=0.5)


@pytest.mark.parametrize("where", ["capture", "reference"])
def test_synchronize_rejects_a_nan_signal(where):
    # a NaN makes the correlation peak NaN, which must fail the floor
    ref = _ref_signal()
    rx = ref.with_samples(np.roll(ref.samples, 7))
    bad = rx if where == "capture" else ref
    bad.samples[100] = np.nan
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(ref, rx)


def test_synchronize_rejects_an_all_zero_capture():
    ref = _ref_signal()
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(ref, ref.with_samples(np.zeros(ref.samples.size)))


def _held_spectrum(ref, n):
    return np.conj(np.fft.rfft(ref.samples, n))


@pytest.mark.parametrize("extra", [0, 1, 37])
def test_synchronize_with_a_held_spectrum_matches_without(extra):
    # a capture longer than its reference takes the spectrum at its length
    ref = _ref_signal(511)
    rng = np.random.default_rng(11)
    rx = ref.with_samples(np.roll(np.concatenate(
        [ref.samples, np.zeros(extra)]), 19) + 0.1 * rng.normal(
            size=ref.samples.size + extra))
    delay, aligned = synchronize(ref, rx)
    held = _held_spectrum(ref, rx.samples.size)
    assert delay == 19
    got = synchronize(ref, rx, spectrum=held)
    assert got[0] == delay
    assert np.array_equal(got[1].samples, aligned.samples)


@pytest.mark.parametrize("n", [510, 516])
def test_synchronize_rejects_a_spectrum_of_another_length(n):
    ref = _ref_signal(512)
    with pytest.raises(ValueError, match=rf"reference spectrum has "
                       rf"{n // 2 + 1} bins, a received signal of 512 "
                       r"samples needs 257"):
        synchronize(ref, ref, spectrum=_held_spectrum(ref, n))


def test_synchronize_with_a_held_spectrum_rejects_a_nan_capture():
    ref = _ref_signal()
    rx = ref.with_samples(np.roll(ref.samples, 7))
    rx.samples[100] = np.nan
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(ref, rx, spectrum=_held_spectrum(ref, ref.samples.size))


# --- a stack of rails, aligned at one delay -------------------------------

def _stack(n=512, delay=7, noise=0.1, seed=20):
    """A two-rail reference and its capture, both rails delayed alike."""
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=(2, n))
    rx = np.roll(ref, delay, axis=1) + noise * rng.normal(size=(2, n))
    return ref, rx


def _stack_spectrum(ref, n):
    return np.stack([_held_spectrum(SampledSignal(r), n) for r in ref])


@pytest.mark.parametrize("extra", [0, 1, 37])
@pytest.mark.parametrize("held", [False, True])
def test_a_stack_aligns_at_each_rails_own_delay(extra, held):
    ref, rx = _stack(511)
    rx = np.concatenate([rx, 0.1 * np.ones((2, extra))], axis=1)
    own = [synchronize(SampledSignal(r), SampledSignal(v))
           for r, v in zip(ref, rx)]
    kw = {}
    if held:
        kw = dict(spectrum=_stack_spectrum(ref, rx.shape[1]),
                  energy=np.einsum("i,i", ref[0], ref[0])
                  + np.einsum("i,i", ref[1], ref[1]))
    # as a 2-D array and as a sequence of rails
    for received in (rx, [SampledSignal(v) for v in rx]):
        delay, aligned = synchronize(ref, received, **kw)
        assert delay == own[0][0] == own[1][0] == 7
        assert aligned.shape == ref.shape
        assert np.array_equal(aligned, [a.samples for _, a in own])


def test_a_stack_is_aligned_into_out():
    # e.g. into the rails of one complex signal, with no other copy
    ref, rx = _stack()
    z = np.empty(ref.shape[1], dtype=np.complex128)
    rows = z.view(np.float64).reshape(-1, 2).T
    delay, aligned = synchronize(ref, rx, out=rows)
    assert delay == 7 and aligned is rows
    assert np.array_equal(z, np.roll(rx[0], -7) + 1j * np.roll(rx[1], -7))


def test_one_rail_aligns_into_out_or_a_new_array():
    ref = _ref_signal()
    rx = np.roll(ref.samples, 7)
    delay, aligned = synchronize(ref.samples, rx)
    assert delay == 7 and isinstance(aligned, np.ndarray)
    assert np.array_equal(aligned, ref.samples)
    out = np.empty(ref.samples.size)
    assert synchronize(ref, rx, out=out)[1] is out
    assert np.array_equal(out, ref.samples)


def test_a_stack_checks_the_summed_correlation():
    # the Q rail alone is noise, ambiguous at min_peak 0.3; the I rail is a
    # clean copy. The stack's normalized height is their energy-weighted
    # mean, about 0.5 here: it passes at 0.3, at the I rail's delay, with
    # the Q capture rotated by it, and fails at 0.6.
    rng = np.random.default_rng(21)
    ref = rng.normal(size=(2, 512))
    rx = np.stack([np.roll(ref[0], 7), rng.normal(size=512)])
    rails = [(SampledSignal(r), SampledSignal(v)) for r, v in zip(ref, rx)]
    assert synchronize(*rails[0], min_peak=0.3)[0] == 7
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(*rails[1], min_peak=0.3)
    delay, aligned = synchronize(ref, rx, min_peak=0.3)
    assert delay == 7
    assert np.array_equal(aligned, np.roll(rx, -7, axis=1))
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(ref, rx, min_peak=0.6)


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("rail", [0, 1])
@pytest.mark.parametrize("where", ["capture", "reference"])
def test_a_stack_with_a_nan_in_either_rail_fails(where, rail, held):
    ref, rx = _stack()
    (rx if where == "capture" else ref)[rail, 100] = np.nan
    kw = dict(spectrum=_stack_spectrum(ref, rx.shape[1])) if held else {}
    with pytest.raises(AlignmentError, match="below floor"):
        synchronize(ref, rx, **kw)


@pytest.mark.parametrize("n", [510, 516])
def test_a_stack_rejects_a_spectrum_of_another_length(n):
    ref, rx = _stack(512)
    with pytest.raises(ValueError, match=rf"reference spectrum has "
                       rf"{n // 2 + 1} bins, a received signal of 512 "
                       r"samples needs 257"):
        synchronize(ref, rx, spectrum=_stack_spectrum(ref, n))


@pytest.mark.parametrize("call, message", [
    (lambda ref, rx: synchronize(ref, rx[:1]),
     "2 reference rails, 1 received"),
    (lambda ref, rx: synchronize(ref, [rx[0], rx[1, :-1]]),
     "the rails of a stack differ in length"),
    (lambda ref, rx: synchronize(
        ref, rx, spectrum=_stack_spectrum(ref, 512)[0]),
     "1 reference spectra, 2 received rails"),
], ids=["rail-count", "rail-length", "spectrum-count"])
def test_a_stack_rejects_rails_that_do_not_pair(call, message):
    ref, rx = _stack(512)
    with pytest.raises(ValueError, match=message):
        call(ref, rx)


# --- RMS normalization ----------------------------------------------------

def test_rms_normalize_halves():
    x = SampledSignal(np.array([2.0, -2.0, 2.0, -2.0]))
    out = rms_normalize(x, 1.0)
    assert np.allclose(out.samples, x.samples / 2)


def test_rms_normalize_identity():
    x = SampledSignal(np.array([3.0, 4.0]))
    out = rms_normalize(x, x.rms())
    assert np.allclose(out.samples, x.samples)


def test_rms_normalize_hand_case():
    x = SampledSignal(np.array([3.0, 4.0]))
    out = rms_normalize(x, 1.0)
    assert out.rms() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.samples, np.array([3.0, 4.0]) / np.sqrt(12.5))


def test_rms_normalize_rejects_zero():
    with pytest.raises(ValueError):
        rms_normalize(SampledSignal(np.zeros(4)), 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ConstellationSpec(8), "order must be 4, 16 or 64"),
    (lambda: RrcSpec(0.2, 7, 2), "span_symbols must be a positive even"),
    (lambda: RrcSpec(0.2, 8, 0), "samples_per_symbol must be positive"),
    (lambda: synchronize(_ref_signal(64), _ref_signal(32)),
     "received shorter than reference"),
    (lambda: rms_normalize(SampledSignal(np.ones(4)), 0.0),
     "target_rms must be > 0"),
    (lambda: qam_modulate([0, 1, 1], ConstellationSpec(16)),
     "bit count 3 not divisible by 4"),
    (lambda: shape_pulse([], RrcSpec(0.2, 8, 2)),
     "symbols must be non-empty"),
    (lambda: snr_db(np.ones(4), np.ones(5)),
     "reference and demodulated lengths differ"),
    (lambda: snr_db(np.zeros(4), np.ones(4)),
     "all-zero reference or demodulated signal"),
    (lambda: snr_db(np.ones(4), np.zeros(4)),
     "all-zero reference or demodulated signal"),
], ids=["qam-order", "rrc-odd-span", "rrc-sps", "short-capture",
        "rms-target", "qam-ragged-bits", "shape-no-symbols",
        "snr-length", "snr-zero-reference", "snr-zero-demodulated"])
def test_dsp_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rms_normalize_rejects_a_non_finite_target(bad):
    with pytest.raises(ValueError, match="target_rms must be > 0 and finite"):
        rms_normalize(SampledSignal(np.ones(4)), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rms_normalize_rejects_a_non_finite_signal(bad):
    with pytest.raises(ValueError, match="cannot RMS-normalize a signal of "
                       f"RMS {bad}"):
        rms_normalize(SampledSignal([1.0, bad, 2.0]), 1.0)


# --- SNR ------------------------------------------------------------------

def test_snr_ceiling_on_equal_signals():
    r = _ref_signal().samples
    assert snr_db(r, r) == 100.0


def test_snr_exact_noise_ratio():
    rng = np.random.default_rng(4)
    r = rng.normal(size=4096)
    n = rng.normal(size=4096)
    n *= np.sqrt(0.01 * np.sum(r ** 2) / np.sum(n ** 2))
    assert snr_db(r, r + n) == pytest.approx(20.0, abs=0.2)


def test_snr_sign_flip_removed_by_gain():
    r = _ref_signal().samples
    assert snr_db(r, -r) == 100.0


def test_snr_scale_invariance():
    rng = np.random.default_rng(5)
    r = rng.normal(size=1024)
    d = r + 0.05 * rng.normal(size=1024)
    base = snr_db(r, d)
    for alpha in (0.1, -3.0, 42.0):
        assert snr_db(alpha * r, alpha * d) == pytest.approx(base, abs=1e-9)


def test_snr_monotone_in_noise():
    rng = np.random.default_rng(6)
    r = rng.normal(size=4096)
    n = rng.normal(size=4096)
    vals = [snr_db(r, r + s * n) for s in (0.01, 0.1, 0.5)]
    assert vals[0] > vals[1] > vals[2]


def test_snr_rejects_length_mismatch():
    with pytest.raises(ValueError):
        snr_db(np.ones(4), np.ones(5))


@pytest.mark.parametrize("where", ["reference", "demodulated"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_snr_rejects_a_non_finite_sample(where, bad):
    r = _ref_signal(64).samples
    d = r.copy()
    (r if where == "reference" else d)[5] = bad
    with pytest.raises(ValueError, match="SNR needs finite signals"):
        snr_db(r, d)


def _snr_pairs():
    rng = np.random.default_rng(22)
    r = rng.normal(size=(2, 1024))
    d = 0.7 * r + 0.05 * rng.normal(size=(2, 1024))
    # two real rails, and the complex signal they make
    return [(r[0], d[0]), (r[1], d[1]),
            (r[0] + 1j * r[1], d[0] + 1j * d[1])]


def test_snr_with_a_held_reference_power_equals_it_formed():
    for r, d in _snr_pairs():
        held = np.mean(np.abs(r) ** 2)
        assert snr_db(r, d, held) == snr_db(r, d)
        assert snr_db(r, r, held) == SNR_CEILING_DB


@pytest.mark.parametrize("power, message", [
    (0.0, "all-zero reference or demodulated signal"),
    (np.nan, "SNR needs finite signals: reference power nan"),
    (np.inf, "SNR needs finite signals: reference power inf"),
])
def test_snr_checks_a_held_reference_power(power, message):
    for r, d in _snr_pairs():
        with pytest.raises(ValueError, match=message):
            snr_db(r, d, power)


def test_snr_with_a_held_reference_power_checks_the_demodulated_signal():
    for r, d in _snr_pairs():
        held = np.mean(np.abs(r) ** 2)
        with pytest.raises(ValueError, match="all-zero reference"):
            snr_db(r, np.zeros_like(d), held)
        d = d.copy()
        d[5] = np.nan
        with pytest.raises(ValueError, match="SNR needs finite signals"):
            snr_db(r, d, held)


# --- PAPR -----------------------------------------------------------------

def test_papr_constant_amplitude():
    assert papr_db(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(0.0)


def test_papr_impulse():
    n = 64
    x = np.zeros(n)
    x[10] = 1.0
    assert papr_db(x) == pytest.approx(10 * np.log10(n))


def test_papr_shaped_qam_golden():
    rng = np.random.default_rng(1234)
    sym = qam_modulate(rng.integers(0, 2, 8192 * 4), ConstellationSpec(16))
    i_rail, q_rail = shape_pulse(sym, RrcSpec(0.2, 16, 2))
    val = papr_db(i_rail.samples + 1j * q_rail.samples)
    assert 6.0 <= val <= 10.0
    assert val == pytest.approx(6.779959980910844, abs=1e-9)


def test_papr_rejects_zero():
    with pytest.raises(ValueError):
        papr_db(np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_papr_rejects_a_non_finite_sample(bad):
    with pytest.raises(ValueError, match=f"PAPR needs a finite signal: mean "
                       f"power {bad}"):
        papr_db(np.array([1.0, bad, -1.0]))
