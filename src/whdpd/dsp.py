"""Baseband signal generation, pulse shaping, alignment and quality metrics.

Complex baseband is carried as two independent real rails (I and Q); every
waveform-level operation here works on one real rail at a time, mirroring
the per-DA electrical processing of the transmitter.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import inner

#: snr_db returns this when the error power underflows (noiseless loopback).
SNR_CEILING_DB = 100.0


class AlignmentError(RuntimeError):
    """Raised when synchronize cannot find an unambiguous correlation peak."""


@dataclass
class SampledSignal:
    """A non-empty real-valued sample sequence."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("SampledSignal must be non-empty")

    def rms(self):
        return float(np.sqrt(np.mean(self.samples ** 2)))

    def with_samples(self, samples):
        return SampledSignal(samples)


def _gray_levels(bits_per_axis):
    """Amplitude levels indexed by the Gray-coded bit pattern of one axis.

    Per-axis reflected Gray code: bit pattern b, interpreted as the Gray code
    g = i ^ (i >> 1) of index i, maps to the i-th level counted downward from
    the positive rail. For 2 bits: 00,01,11,10 -> +3,+1,-1,-3.
    """
    n = 1 << bits_per_axis
    levels = np.empty(n)
    for i in range(n):
        g = i ^ (i >> 1)
        levels[g] = (n - 1) - 2 * i
    return levels


@dataclass
class ConstellationSpec:
    """Square Gray-coded QAM normalized to unit average power."""

    order: int

    def __post_init__(self):
        if self.order not in (4, 16, 64):
            raise ValueError("order must be 4, 16 or 64")
        self.bits_per_symbol = int(np.log2(self.order))
        b = self.bits_per_symbol // 2
        levels = _gray_levels(b)
        # unit average power: E|s|^2 = 2 * mean(levels^2) before scaling
        self._levels = levels / np.sqrt(2.0 * np.mean(levels ** 2))


def qam_modulate(bits, spec):
    """Map a 0/1 bit sequence to Gray-coded QAM symbols.

    The first half of each symbol's bits selects the I level, the second half
    the Q level. Rejects bit counts not divisible by bits-per-symbol.
    """
    bits = np.asarray(bits, dtype=np.int64)
    bps = spec.bits_per_symbol
    if bits.size % bps != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    b = bps // 2
    words = bits.reshape(-1, bps)
    weights = 1 << np.arange(b - 1, -1, -1)
    gi = words[:, :b] @ weights
    gq = words[:, b:] @ weights
    return spec._levels[gi] + 1j * spec._levels[gq]


@dataclass
class RrcSpec:
    """Root-raised-cosine pulse shaping parameters."""

    rolloff: float
    span_symbols: int = 16
    samples_per_symbol: int = 2

    def __post_init__(self):
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError("rolloff must be in (0, 1]")
        if self.span_symbols <= 0 or self.span_symbols % 2 != 0:
            raise ValueError("span_symbols must be a positive even integer")
        if self.samples_per_symbol <= 0:
            raise ValueError("samples_per_symbol must be positive")


def rrc_taps(spec):
    """Unit-energy RRC taps, symmetric, length span*sps + 1."""
    beta = spec.rolloff
    sps = spec.samples_per_symbol
    n = spec.span_symbols * sps + 1
    t = (np.arange(n) - (n - 1) / 2) / sps  # in symbol periods
    taps = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - beta + 4.0 * beta / np.pi
        elif abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-12:
            taps[i] = (beta / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta)))
        else:
            num = (np.sin(np.pi * ti * (1.0 - beta))
                   + 4.0 * beta * ti * np.cos(np.pi * ti * (1.0 + beta)))
            den = np.pi * ti * (1.0 - (4.0 * beta * ti) ** 2)
            taps[i] = num / den
    return taps / np.sqrt(np.sum(taps ** 2))


def shape_pulse(symbols, spec):
    """Upsample and RRC-shape complex symbols into real I and Q rails.

    Zero-padded "full" convolution truncated to center, so each rail has
    exactly len(symbols) * sps samples.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        raise ValueError("symbols must be non-empty")
    sps = spec.samples_per_symbol
    taps = rrc_taps(spec)
    up = np.zeros(symbols.size * sps, dtype=np.complex128)
    up[::sps] = symbols
    c = len(taps) // 2
    shaped = np.convolve(up, taps)[c:c + up.size]
    return SampledSignal(shaped.real), SampledSignal(shaped.imag)


def _rows(x):
    """A rail (a SampledSignal or 1-D array) as [its samples], a stack of
    rails (a 2-D array or a sequence of rails) as the list of its rows."""
    x = _as_array(x) if isinstance(x, SampledSignal) else x
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return [x]
    return [_as_array(row) for row in x]


def _correlation_spectrum(r, v, held):
    """rfft(v) * conj(rfft(r, len(v))), formed in rfft(v)'s array; held,
    if given, is the conjugate factor."""
    f = np.fft.rfft(v)
    f *= np.conj(np.fft.rfft(r, v.size)) if held is None else held
    return f


def _rotate_into(out, v, shift):
    """np.roll(v, -shift)[:out.size], written into out."""
    head = v[shift:shift + out.size]
    out[:head.size] = head
    out[head.size:] = v[:out.size - head.size]


def synchronize(reference, received, min_peak=0.1, spectrum=None,
                energy=None, out=None):
    """Find the delay of received vs reference by circular cross-correlation.

    reference and received are each one rail (a SampledSignal or 1-D
    array) or a stack of rails (a 2-D array or a sequence of rails), row
    for row. The rails of a stack passed through one channel and share one
    delay, so their correlations are summed, sum_j conj(R_j) * V_j in the
    frequency domain, and one peak is taken. Returns (delay, aligned)
    where aligned is received rotated back by delay and truncated to the
    reference length: a SampledSignal for a SampledSignal, else an array
    (one row per rail for a stack), written into out when given.

    Raises AlignmentError when the normalized correlation peak,
    corr[delay] / sqrt(sum_j r_j.r_j * sum_j v_j.v_j), falls below
    min_peak, or is NaN. For a stack the check is joint, on the summed
    correlation: a rail that alone would fall below min_peak passes, aligned
    at the stack's delay, when the stack clears it.

    spectrum, if given, is the reference's conjugate spectrum at the
    received length, conj(rfft(r_j, len(v_j))) per row, and energy the
    reference's sum_j r_j.r_j; a caller that aligns many captures to one
    reference can hold both. A spectrum row of another length raises
    ValueError.
    """
    rs, vs = _rows(reference), _rows(received)
    n, m = rs[0].size, vs[0].size
    if len(rs) != len(vs):
        raise ValueError(f"{len(rs)} reference rails, {len(vs)} received")
    if any(r.size != n for r in rs) or any(v.size != m for v in vs):
        raise ValueError("the rails of a stack differ in length")
    if m < n:
        raise ValueError("received shorter than reference")
    spectra = [None] * len(vs)
    if spectrum is not None:
        spectra = _rows(spectrum)
        for f in spectra:
            if f.shape != (m // 2 + 1,):
                raise ValueError(f"reference spectrum has {f.size} bins, a "
                                 f"received signal of {m} samples needs "
                                 f"{m // 2 + 1}")
        if len(spectra) != len(vs):
            raise ValueError(f"{len(spectra)} reference spectra, "
                             f"{len(vs)} received rails")
    f = _correlation_spectrum(rs[0], vs[0], spectra[0])
    for r, v, held in zip(rs[1:], vs[1:], spectra[1:]):
        # each further rail's product is freed before the irfft
        f += _correlation_spectrum(r, v, held)
    corr = np.fft.irfft(f, m)
    del f
    peak = int(np.argmax(corr))
    if energy is None:
        energy = sum(map(inner, rs, rs))
    norm = np.sqrt(energy * sum(map(inner, vs, vs)))
    # written so that a NaN in any signal fails it
    if not (norm > 0 and corr[peak] / norm >= min_peak):
        raise AlignmentError("correlation peak below floor; alignment ambiguous")
    del corr
    if out is None:
        one_rail = (isinstance(received, SampledSignal)
                    or getattr(received, "ndim", 2) == 1)
        out = np.empty(n if one_rail else (len(vs), n))
    for row, v in zip(_rows(out), vs):
        _rotate_into(row, v, peak)
    if isinstance(received, SampledSignal):
        return peak, received.with_samples(out)
    return peak, out


def rms_normalize(x, target_rms):
    """Scale a signal to the requested RMS (> 0 and finite); an all-zero or
    non-finite signal raises ValueError."""
    # written so that NaN fails them
    if not 0 < target_rms < np.inf:
        raise ValueError(f"target_rms must be > 0 and finite, got "
                         f"{target_rms!r}")
    cur = x.rms()
    if cur == 0:
        raise ValueError("cannot RMS-normalize an all-zero signal")
    if not cur < np.inf:
        raise ValueError(f"cannot RMS-normalize a signal of RMS {cur!r}")
    return x.with_samples(x.samples * (target_rms / cur))


def _as_array(x):
    return x.samples if isinstance(x, SampledSignal) else np.asarray(x)


def snr_db(reference, demodulated, reference_power=None):
    """10*log10(E|r|^2 / E|r - g*d|^2) with the least-squares gain g.

    Accepts real rails, complex sequences or SampledSignals. The optimal
    gain removes any residual scale (and sign) before the ratio; the return
    value is capped at SNR_CEILING_DB when the error power underflows. An
    all-zero or non-finite reference or demodulated signal raises
    ValueError. reference_power, if given, is the reference's
    np.mean(np.abs(reference) ** 2), which a caller that scores many
    signals against one reference can hold.
    """
    r = _as_array(reference)
    d = _as_array(demodulated)
    if r.shape != d.shape:
        raise ValueError("reference and demodulated lengths differ")
    p_sig = (np.mean(np.abs(r) ** 2) if reference_power is None
             else reference_power)
    # conj(d) formed once for both inner products, each summed as
    # kernels.inner sums it
    dc = d.conj()
    dd = np.einsum("i,i", dc, d)
    if p_sig == 0 or dd == 0:
        raise ValueError("SNR against an all-zero reference or demodulated "
                         "signal is undefined")
    # written so that NaN fails it
    if not (p_sig < np.inf and abs(dd) < np.inf):
        raise ValueError(f"SNR needs finite signals: reference power "
                         f"{float(p_sig)}, demodulated energy {abs(dd)}")
    g = np.einsum("i,i", dc, r) / dd
    del dc
    # r - g*d and its squared magnitude, each formed in place
    err = g * d
    np.subtract(r, err, out=err)
    e2 = np.abs(err)
    p_err = np.mean(np.square(e2, out=e2))
    if p_err <= p_sig * 10.0 ** (-SNR_CEILING_DB / 10.0):
        return SNR_CEILING_DB
    return float(10.0 * np.log10(p_sig / p_err))


def papr_db(x):
    """Peak-to-average power ratio in dB; an all-zero or non-finite signal
    raises ValueError."""
    p = np.abs(_as_array(x)) ** 2
    p_mean = np.mean(p)
    if p_mean == 0:
        raise ValueError("PAPR of an all-zero signal is undefined")
    # written so that NaN fails it
    if not p_mean < np.inf:
        raise ValueError(f"PAPR needs a finite signal: mean power "
                         f"{float(p_mean)}")
    return float(10.0 * np.log10(np.max(p) / p_mean))
