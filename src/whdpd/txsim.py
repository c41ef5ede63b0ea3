"""Software stand-in for the hardware transmitter chain.

Processing order: DAC quantizer -> pre FIR -> saturating amplifier ->
post FIR -> optional MZM -> additive white Gaussian noise. Everything is
per real rail and deterministic for a fixed seed.

The "paper-like" preset is synthetic: the real lab responses are unknown,
so the FIRs are gentle low-pass stand-ins with a small echo, and the
amplifier is the arctan saturation model while the DPD nonlinearity stays
cubic, keeping the same model mismatch the lab experiment had.
"""

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import SCHEMA_VERSION, FirBlock
from .kernels import fir_same


# written so that NaN fails them
def _check_positive(spec, name):
    if not 0 < getattr(spec, name) < np.inf:
        raise ValueError(f"{name} must be > 0 and finite, got "
                         f"{getattr(spec, name)!r}")


def _check_integer(spec, name):
    value = getattr(spec, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_finite(spec, name):
    if not -np.inf < getattr(spec, name) < np.inf:
        raise ValueError(f"{name} must be finite, got "
                         f"{getattr(spec, name)!r}")


@dataclass
class SaturationSpec:
    """Memoryless odd compression. saturation_level is the output asymptote
    (arctan/tanh) or the cubic scale; gain is the small-signal slope.

    kind 'cubic' is y = gain * (x - x^3 / (3*sat^2)), the third-order Taylor
    match of tanh saturation; it equals a cubic PolyNlBlock with
    a = -1/(3*sat^2), which makes WH-expressible channels easy to build.
    Only monotone for |x| < sat.
    """

    kind: str = "arctan"
    saturation_level: float = 1.0
    gain: float = 1.0

    def __post_init__(self):
        if self.kind not in ("arctan", "tanh", "cubic"):
            raise ValueError(f"unknown saturation kind {self.kind!r}")
        _check_positive(self, "saturation_level")
        _check_finite(self, "gain")


@dataclass
class MzmSpec:
    """Mach-Zehnder transfer sin(pi*v / (2*v_pi)) per rail."""

    v_pi: float = 1.0

    def __post_init__(self):
        _check_positive(self, "v_pi")


@dataclass
class TxChannel:
    """Configurable transmitter chain."""

    dac_bits: int | None = None
    dac_full_scale: float = 1.0
    pre_fir: FirBlock = field(default_factory=lambda: FirBlock.identity(1))
    saturation: SaturationSpec = field(default_factory=SaturationSpec)
    post_fir: FirBlock = field(default_factory=lambda: FirBlock.identity(1))
    mzm: MzmSpec | None = None
    noise_snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dac_bits is not None:
            _check_integer(self, "dac_bits")
            if not 1 <= self.dac_bits <= 16:
                raise ValueError("dac_bits must be in [1, 16]")
        _check_integer(self, "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        _check_positive(self, "dac_full_scale")
        if self.noise_snr_db is not None:
            _check_finite(self, "noise_snr_db")


def quantize(x, bits, full_scale):
    """Uniform mid-rise quantization with hard clipping at +-full_scale."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not 0 < full_scale < np.inf:
        raise ValueError("full_scale must be > 0 and finite")
    delta = 2.0 * full_scale / 2 ** bits
    # (clip(floor(x / delta)) + 0.5) * delta, each step after the first in
    # place in the first's array
    idx = np.divide(x.samples, delta)
    np.floor(idx, out=idx)
    np.clip(idx, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1, out=idx)
    idx += 0.5
    idx *= delta
    return x.with_samples(idx)


def _compress(spec, v, out=None):
    """The samples of saturate(spec, v), formed in out (which may be v)
    when given. Each step keeps its formula's order of operations, so the
    result is bitwise the formula's."""
    s = spec.saturation_level
    g = spec.gain
    if spec.kind == "arctan":
        # (2 s / pi) * arctan(pi g v / (2 s))
        y = np.multiply(np.pi * g, v, out=out)
        y /= 2.0 * s
        np.arctan(y, out=y)
        y *= 2.0 * s / np.pi
    elif spec.kind == "tanh":
        # s * tanh(g v / s)
        y = np.multiply(g, v, out=out)
        y /= s
        np.tanh(y, out=y)
        y *= s
    else:  # cubic: g * (v - v**3 / (3 s s)), v read after v**3 is formed
        y = np.power(v, 3)
        y /= 3.0 * s * s
        y = np.subtract(v, y, out=y if out is None else out)
        y *= g
    return y


def saturate(spec, x):
    """Elementwise monotone odd compression."""
    return x.with_samples(_compress(spec, x.samples))


def simulate_tx(channel, x, normal=None):
    """Run one rail through the transmitter chain; deterministic per seed.

    The noise is sigma * normal, where normal is the seed's standard-normal
    draw default_rng(channel.seed).standard_normal(N); it is drawn here when
    not given. A caller that drives the channel repeatedly can hold the draw
    and pass it. The sum is bit for bit that of rng.normal(0.0, sigma, N).
    """
    sig = x
    if channel.dac_bits is not None:
        sig = quantize(sig, channel.dac_bits, channel.dac_full_scale)
    # the FIR outputs are new arrays, the chain's own: each stage after one
    # is formed in place in it, so neither x nor normal is written
    v = fir_same(sig.samples, channel.pre_fir.taps)
    _compress(channel.saturation, v, out=v)
    v = fir_same(v, channel.post_fir.taps)
    if channel.mzm is not None:
        # sin(pi v / (2 v_pi))
        v *= np.pi
        v /= 2.0 * channel.mzm.v_pi
        np.sin(v, out=v)
    if channel.noise_snr_db is not None:
        n = v.size
        if normal is None:
            normal = np.random.default_rng(channel.seed).standard_normal(n)
        if normal.shape != (n,):
            raise ValueError(f"noise draw has {normal.size} samples, the "
                             f"signal {n}")
        # v**2, and then sigma * normal, formed in one array
        work = np.square(v)
        p_sig = np.mean(work)
        p_noise = p_sig * 10.0 ** (-channel.noise_snr_db / 10.0)
        v += np.multiply(np.sqrt(p_noise), normal, out=work)
    return sig.with_samples(v)


def _lowpass(n_taps, cutoff, echo=0.0, echo_delay=0):
    """Gentle low-pass with an optional small echo tap, unit DC gain: a
    Hamming-windowed sinc with its cutoff as a fraction of Nyquist."""
    m = np.arange(n_taps) - (n_taps - 1) / 2
    taps = np.sinc(cutoff * m) * np.hamming(n_taps)
    taps /= np.sum(taps)
    if echo:
        taps[n_taps // 2 + echo_delay] += echo
    return FirBlock(taps / np.sum(taps))


def paper_like_preset(seed=0):
    """Synthetic desk-scale channel: 8-bit DAC, 15-tap low-pass FIRs with
    gentle ripple, arctan saturation, 35-dB noise."""
    return TxChannel(
        dac_bits=8,
        dac_full_scale=1.5,
        pre_fir=_lowpass(15, 0.85, echo=0.04, echo_delay=3),
        saturation=SaturationSpec("arctan", saturation_level=1.0, gain=1.0),
        post_fir=_lowpass(15, 0.75, echo=0.05, echo_delay=4),
        mzm=None,
        noise_snr_db=35.0,
        seed=seed)


# ---------------------------------------------------------------------------
# serialization (same JSON family as model files)
# ---------------------------------------------------------------------------

def channel_to_dict(channel):
    body = asdict(channel, dict_factory=lambda items: {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items})
    return {"schema_version": SCHEMA_VERSION, "channel": body}


_PARTS = {
    "pre_fir": lambda d: FirBlock(**d),
    "saturation": lambda d: SaturationSpec(**d),
    "post_fir": lambda d: FirBlock(**d),
    "mzm": lambda d: None if d is None else MzmSpec(**d),
}


def channel_from_dict(doc):
    """TxChannel from channel_to_dict's layout: keys are field names, a
    missing key takes the field's default and an unknown key raises
    TypeError."""
    return TxChannel(**{k: _PARTS[k](v) if k in _PARTS else v
                        for k, v in doc["channel"].items()})
