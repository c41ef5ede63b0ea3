"""Generalized Wiener-Hammerstein cascade: blocks, forward pass, complexity.

A model is an ordered list of FIR blocks and memoryless polynomial blocks.
The canonical configuration is LNL: FirBlock(K1), PolyNlBlock({3: a}),
FirBlock(K2). FIR convolution is same-length with zero padding and the
center tap at index K//2, so a unit-impulse filter with odd K is exactly
the identity.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels

SCHEMA_VERSION = "whdpd-1"


@dataclass
class FirBlock:
    """Real FIR filter; the linear frequency-response compensation block."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1:
            raise ValueError("FIR taps must be a 1-D array")
        if self.taps.size < 1:
            raise ValueError("FIR block needs at least one tap")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("FIR taps must be finite")

    @classmethod
    def identity(cls, n_taps):
        """Unit-impulse filter (the standard initial value)."""
        taps = np.zeros(n_taps)
        taps[n_taps // 2] = 1.0
        return cls(taps)


@dataclass
class PolyNlBlock:
    """Memoryless polynomial f(x) = x + sum_m a_m x^m, orders m >= 2.

    The linear term is implicitly 1; coeffs is sparse so the canonical
    cubic-only block {3: a} and a full polynomial share one type.
    """

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.coeffs, dict):
            raise TypeError("polynomial coefficients must be an order -> "
                            f"value mapping, not {type(self.coeffs).__name__}")
        clean = {}
        for m, a in self.coeffs.items():
            m, a = int(m), float(a)
            if m < 2:
                raise ValueError("polynomial orders must be >= 2")
            if not np.isfinite(a):
                raise ValueError("polynomial coefficients must be finite")
            clean[m] = a
        self.coeffs = clean

    def orders(self):
        """The present orders, ascending: the one order of a block's
        coefficients, which values, the forward and backward passes and the
        packed coefficient vector all follow."""
        return tuple(sorted(self.coeffs))

    def values(self):
        return np.array([self.coeffs[m] for m in self.orders()])

    @classmethod
    def cubic(cls, a=0.0):
        return cls({3: a})


@dataclass
class WhModel:
    """Ordered cascade of FirBlock / PolyNlBlock layers."""

    layers: list

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("model needs at least one block")

    @classmethod
    def lnl(cls, k1, k2, a=0.0):
        """Canonical LNL model at the standard initialization
        (unit-impulse filters, a as given, default 0)."""
        return cls([FirBlock.identity(k1), PolyNlBlock.cubic(a),
                    FirBlock.identity(k2)])

    def copy(self):
        """Independent copy: new tap arrays and coefficient dicts."""
        return WhModel([FirBlock(b.taps.copy()) if isinstance(b, FirBlock)
                        else PolyNlBlock(dict(b.coeffs)) for b in self.layers])


@dataclass
class ComplexityReport:
    multiplications_per_sample: int
    additions_per_sample: int


def fir_apply(block, x):
    """Same-length zero-padded convolution of a signal with the block taps."""
    return x.with_samples(kernels.fir_same(x.samples, block.taps))


def _poly(y, orders, coeffs, out=None, p_out=None):
    """(polynomial output, powers of y), see kernels.poly_apply; an empty
    block copies y (into out, if given)."""
    if not orders:
        out = np.empty_like(y) if out is None else out
        out[:] = y
        return out, None
    return kernels.poly_apply(y, orders, coeffs, out, p_out)


def nl_apply(block, y):
    """Elementwise x + sum a_m x^m; memoryless."""
    return y.with_samples(_poly(y.samples, block.orders(),
                                block.values())[0])


class Plan:
    """What every step of a fit reuses, built once per fit for one model,
    its input x and reference (arrays), its coefficient layout (the keys
    of each block's coefficients, in pack's order) and parts (one array of
    them per block, which the steps read and the optimizer updates in
    place).

    Every array that a step writes N samples into is of kernels.CASCADE_DTYPE
    and aligned for vector loads (kernels.aligned), and so are x_in and
    ref, the input and the reference, cast into the plan once; parts and
    flat stay float64. For each FIR block, a frame of its input and one of
    its output gradient (kernels.Frame); each but the first block's
    gradient frame has a product of its own that the block's output (or
    input gradient) is formed in, and a kernels.Work that it shares with
    the frames of its filter length. For each polynomial block, its
    orders, its coefficients, where its output goes (the frame of the FIR
    block after, if there is one) and the arrays that the powers of its
    input are formed in (poly), and the powers of the last forward
    (powers), which the backward reads. flat is the gradient vector. x_in
    is what the forward takes as the model input: the first FIR block's
    frame's samples, or an array of the plan's before a polynomial block.
    """

    def __init__(self, model, x, reference, layout, parts):
        n, layers, dtype = len(x), model.layers, kernels.CASCADE_DTYPE
        frames = [[kernels.Frame(n, b.taps.size, dtype)
                   if isinstance(b, FirBlock) else None for b in layers]
                  for _ in range(2)]
        # the model output (inputs[-1]) is written to no frame
        self.inputs, self.grads = frames[0] + [None], frames[1]
        work = {}
        # the backward forms no gradient into the model input, so no kernel
        # forms a result on the first block's gradient frame
        for f in filter(None, frames[0] + frames[1][1:]):
            if f.k not in work:
                work[f.k] = kernels.Work(f)
            f.work, f.out = work[f.k], f.product()
        self.layout, self.parts = layout, parts
        self.poly = [None] * len(layers)
        for i, (f, e, c) in enumerate(zip(frames[0], layout, parts)):
            if f is None:
                after = self.inputs[i + 1]
                self.poly[i] = (e, c, None if after is None else after.samples,
                                [kernels.aligned(n, dtype=dtype) for _ in
                                 range(max(e, default=1) - 1)])
        self.powers = [None] * len(layers)
        self.flat = np.empty(sum(map(len, layout)))
        first = frames[0][0]
        if first is None:
            self.x_in = kernels.aligned(n, dtype=dtype)
            self.x_in[:] = x
        else:
            self.x_in = first.hold(x).samples
        self.ref = kernels.aligned(n, dtype=dtype)
        self.ref[:] = reference


def run_cascade(model, y, scale=None, plan=None):
    """Run the cascade on a sample array; returns (output array,
    intermediates), the one walker behind wh_forward and apply_dpd.

    The intermediates list holds each layer's input (x^(l) for FIR blocks,
    y^(l) for nonlinear blocks) followed by the final output; it is
    consumed by the backward pass. Given scale, a function of (layer index,
    input array) giving a factor s, each nonlinear block runs on s*y and its
    output is divided by s. Given a plan, each FIR block's input is its
    frame in the plan, whose product the block forms its output in; a
    polynomial block reads its coefficients from the plan's parts, forms
    its output where the plan says and leaves the powers of its input
    there.
    """
    inputs = ([None] * (len(model.layers) + 1) if plan is None
              else plan.inputs)
    intermediates = []
    for i, block in enumerate(model.layers):
        if inputs[i] is not None:
            y = inputs[i].hold(y)
        intermediates.append(y)
        if isinstance(block, FirBlock):
            y = kernels.fir_same(y, block.taps)
        elif not isinstance(block, PolyNlBlock):
            raise TypeError(f"unknown block type {type(block).__name__}")
        elif plan is not None:
            y, plan.powers[i] = _poly(y, *plan.poly[i])
        elif scale is None:
            y = _poly(y, block.orders(), block.values())[0]
        else:
            s = scale(i, y)
            y = _poly(y * s, block.orders(), block.values())[0] / s
    intermediates.append(y)
    return y, intermediates


def wh_forward(model, x, plan=None):
    """Run the cascade on a signal, or on a sample array; returns (output
    of the same kind, intermediates), see run_cascade. Given a plan, x is
    the plan's x_in, so the input is framed only once, and the output
    stays in the plan's dtype."""
    if isinstance(x, np.ndarray):
        return run_cascade(model, x, plan=plan)
    out, intermediates = run_cascade(model, x.samples, plan=plan)
    return x.with_samples(out), intermediates


def complexity(model):
    """Per-sample multiply/add counts.

    FIR with K taps: K mults, K-1 adds. A polynomial counts only its present
    terms: order m costs m mults, and each term costs one add onto x
    (cubic-only: 3 mults, 1 add; a full M-th order polynomial recovers
    M(M+1)/2 - 1 mults and M - 1 adds).
    """
    mults = 0
    adds = 0
    for block in model.layers:
        if isinstance(block, FirBlock):
            k = block.taps.size
            mults += k
            adds += k - 1
        else:
            for m in block.coeffs:
                mults += m
                adds += 1
    return ComplexityReport(mults, adds)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_dict(model):
    layers = []
    for block in model.layers:
        if isinstance(block, FirBlock):
            layers.append({"kind": "fir", "taps": block.taps.tolist()})
        else:
            layers.append({"kind": "poly",
                           "coeffs": {str(m): a for m, a in block.coeffs.items()}})
    return {"schema_version": SCHEMA_VERSION, "layers": layers}


def model_from_dict(doc):
    layers = []
    for entry in doc["layers"]:
        if entry["kind"] == "fir":
            layers.append(FirBlock(entry["taps"]))
        elif entry["kind"] == "poly":
            layers.append(PolyNlBlock(entry["coeffs"]))
        else:
            raise ValueError(f"unknown block kind {entry['kind']!r}")
    return WhModel(layers)
