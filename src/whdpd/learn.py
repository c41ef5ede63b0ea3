"""Backpropagation through the WH cascade, Adam updates, and the
indirect-learning loop that turns a fitted post-estimator into a
pre-distorter.

Gradients are normalized by the sample count N (pure learning-rate
rescaling; fixed points are unchanged) so tolerances and learning rates are
length-independent. The training objective is therefore
(0.5*||y - ref||^2 + ridge * sum(theta^2)) / N.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dsp import SampledSignal, rms_normalize, synchronize
from .model import (FirBlock, PolyNlBlock, WhModel, model_from_dict,
                    model_to_dict, nl_apply, wh_forward)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, iteration):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass
class WhGradients:
    """Per-block gradients mirroring a WhModel: arrays for FIR taps,
    order->value dicts for polynomial coefficients."""

    per_layer: list

    def norm(self):
        g = np.concatenate([_values(e) for e in self.per_layer])
        return float(np.sqrt(g @ g))


def _values(entry):
    """One block's coefficients (or their gradient) as a vector: FIR taps
    as stored, an order->value dict by ascending order."""
    if isinstance(entry, dict):
        return np.array([entry[m] for m in sorted(entry)], dtype=np.float64)
    return np.asarray(entry, dtype=np.float64)


def _entries(model):
    return [b.taps if isinstance(b, FirBlock) else b.coeffs
            for b in model.layers]


def pack(model, per_layer=None):
    """The model's coefficients as one vector theta, block by block: FIR
    taps as stored, polynomial coefficients by ascending order.

    Given per_layer (a gradient: an array per FIR block, an order->value
    dict per polynomial block), packs it in theta's layout instead, after
    checking that it matches the model block for block.
    """
    own = _entries(model)
    if per_layer is None:
        return np.concatenate([_values(e) for e in own])
    if len(per_layer) != len(own):
        raise ValueError("gradient/model block count mismatch")
    for mine, entry in zip(own, per_layer):
        if isinstance(mine, dict):
            if not isinstance(entry, dict) or set(entry) != set(mine):
                raise ValueError("gradient/model coefficient keys mismatch")
        elif np.shape(entry) != mine.shape:
            raise ValueError("gradient/model tap count mismatch")
    return np.concatenate([_values(e) for e in per_layer])


def unpack(theta, model):
    """Write theta back into the model's blocks in place (the inverse of
    pack); returns the model."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (sum(len(e) for e in _entries(model)),):
        raise ValueError("coefficient vector/model size mismatch")
    pos = 0
    for block in model.layers:
        if isinstance(block, FirBlock):
            block.taps[:] = theta[pos:pos + block.taps.size]
            pos += block.taps.size
        else:
            for m in sorted(block.coeffs):
                block.coeffs[m] = float(theta[pos])
                pos += 1
    return model


def model_coeff_sumsq(model):
    theta = pack(model)
    return float(theta @ theta)


def loss(y_out, reference, model=None, ridge=0.0):
    """0.5 * sum((y - ref)^2), plus ridge * sum(theta^2) when configured."""
    y = y_out.samples if isinstance(y_out, SampledSignal) else np.asarray(y_out)
    r = reference.samples if isinstance(reference, SampledSignal) else np.asarray(reference)
    if y.shape != r.shape:
        raise ValueError("output/reference length mismatch")
    e = 0.5 * float(np.sum((y - r) ** 2))
    if ridge > 0.0 and model is not None:
        e += ridge * model_coeff_sumsq(model)
    return e


def wh_backward(model, intermediates, reference, ridge=0.0):
    """Exact gradients of the normalized loss w.r.t. every coefficient.

    intermediates must come from wh_forward on the same model and input: one
    input array per layer plus the final output. FIR gradients are the
    adjoint of the same-length zero-padded convolution (correlation with the
    flipped filter restricted to the same window); polynomial gradients are
    dE/da_m = sum_n g_n y_n^m with local slope 1 + sum m a_m y^(m-1). A
    ridge weight adds its term 2*ridge*theta/N to every coefficient.
    """
    if len(intermediates) != len(model.layers) + 1:
        raise ValueError("intermediates do not match the model")
    ref = reference.samples if isinstance(reference, SampledSignal) else np.asarray(reference)
    out = intermediates[-1]
    if out.shape != ref.shape:
        raise ValueError("output/reference length mismatch")
    n = out.size
    decay = 2.0 * ridge / n
    g = (out - ref) / n
    per_layer = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        block = model.layers[i]
        x_in = intermediates[i]
        if x_in.shape != g.shape:
            raise ValueError("intermediates do not match the model")
        # at i == 0, g would become the gradient w.r.t. the model input,
        # which nothing reads
        if isinstance(block, FirBlock):
            per_layer[i] = (kernels.fir_grad_taps(g, x_in, block.taps.size)
                            + decay * block.taps)
            if i > 0:
                g = kernels.fir_grad_input(g, block.taps)
        else:
            per_layer[i] = {m: float(np.dot(g, kernels.power(x_in, m)))
                            + decay * a for m, a in block.coeffs.items()}
            if i > 0 and block.coeffs:
                g = g * kernels.poly_slope(x_in, block.orders(), block.values())
    return WhGradients(per_layer)


@dataclass
class AdamState:
    """Adam moments over the packed coefficient vector, plus
    hyperparameters.

    Taps and nonlinear coefficients get separate learning rates because
    their magnitudes differ by orders of magnitude in practice.
    """

    lr_taps: float = 1e-3
    lr_nl: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_model(cls, model, **kwargs):
        size = pack(model).size
        return cls(m=np.zeros(size), v=np.zeros(size), **kwargs)


def adam_step(state, model, grads, freeze_nonlinear=False):
    """One bias-corrected Adam update of pack(model), in place; returns
    (state, model). Taps step with lr_taps, polynomial coefficients with
    lr_nl, or not at all when frozen."""
    g = pack(model, grads.per_layer)
    if state.m.shape != g.shape:
        raise ValueError("state/model coefficient count mismatch")
    lr_nl = 0.0 if freeze_nonlinear else state.lr_nl
    lr = np.repeat([state.lr_taps if isinstance(b, FirBlock) else lr_nl
                    for b in model.layers],
                   [len(e) for e in _entries(model)])
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * g ** 2
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    unpack(pack(model) - lr * m_hat / (np.sqrt(v_hat) + state.eps), model)
    return state, model


@dataclass
class FitConfig:
    iterations: int = 2000
    lr_taps: float = 1e-3
    lr_nl: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    tol: float = 1e-9          # relative loss change over tol_window iterations
    tol_window: int = 10
    ridge: float = 0.0
    freeze_nonlinear: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iteration budget must be >= 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be > 0")
        if self.ridge < 0:
            raise ValueError("ridge weight must be >= 0")


@dataclass
class DpdArtifact:
    """Trained model plus the stored nonlinear-block input amplitudes
    (max absolute sample entering each PolyNlBlock on the final pass)."""

    model: WhModel
    nl_input_amplitudes: dict
    final_loss: float
    iterations: int
    history: list = field(default_factory=list, repr=False)

    @property
    def stored_nl_input_amplitude(self):
        if not self.nl_input_amplitudes:
            return 1.0
        return max(self.nl_input_amplitudes.values())


def artifact_to_dict(artifact):
    doc = model_to_dict(artifact.model)
    doc["nl_input_amplitudes"] = {str(k): v for k, v
                                  in artifact.nl_input_amplitudes.items()}
    doc["final_loss"] = artifact.final_loss
    doc["iterations"] = artifact.iterations
    return doc


def artifact_from_dict(doc):
    return DpdArtifact(
        model=model_from_dict(doc),
        nl_input_amplitudes={int(k): float(v) for k, v
                             in doc.get("nl_input_amplitudes", {}).items()},
        final_loss=float(doc.get("final_loss", float("nan"))),
        iterations=int(doc.get("iterations", 0)))


def _nl_input_amplitudes(model, intermediates):
    amps = {}
    for i, block in enumerate(model.layers):
        if isinstance(block, PolyNlBlock):
            amps[i] = float(np.max(np.abs(intermediates[i])))
    return amps


def fit_postestimator(received, reference, init, cfg):
    """Full-batch gradient fit of the post-estimator.

    received must already be synchronized and RMS-matched to reference.
    Stops at the iteration budget or when the relative loss change over
    cfg.tol_window iterations drops below cfg.tol. Returns the best model
    seen (so the final loss never exceeds the initial one).
    """
    model = init.copy()
    state = AdamState.for_model(model, lr_taps=cfg.lr_taps, lr_nl=cfg.lr_nl,
                                beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    n = received.samples.size
    history = []
    best_loss = np.inf
    best_model, best_inter = model.copy(), None
    for it in range(cfg.iterations):
        out, inter = wh_forward(model, received)
        j = loss(out, reference, model, cfg.ridge) / n
        if not np.isfinite(j):
            raise TrainingDivergedError(it)
        if j < best_loss:
            best_loss, best_model, best_inter = j, model.copy(), inter
        grads = wh_backward(model, inter, reference, cfg.ridge)
        history.append((it, j, grads.norm()))
        adam_step(state, model, grads, cfg.freeze_nonlinear)
        w = cfg.tol_window
        if it >= w:
            prev = history[-1 - w][1]
            if prev > 0 and abs(j - prev) / prev < cfg.tol:
                break
    return DpdArtifact(model=best_model,
                       nl_input_amplitudes=_nl_input_amplitudes(best_model,
                                                                best_inter),
                       final_loss=best_loss,
                       iterations=len(history),
                       history=history)


def indirect_learn(tx_signal, channel, init, cfg):
    """One-shot indirect learning: pass the non-DPD signal through the
    channel, synchronize and RMS-match the capture, fit the post-estimator,
    and return it as the pre-distorter artifact."""
    rx = channel(tx_signal)
    _, aligned = synchronize(tx_signal, rx)
    normalized = rms_normalize(aligned, tx_signal.rms())
    return fit_postestimator(normalized, tx_signal, init, cfg)


def apply_dpd(artifact, x):
    """Run the trained cascade as a pre-distorter.

    Before each nonlinear block the signal is rescaled so its peak equals
    the stored training amplitude, and the scale is undone afterwards
    (f(s*x)/s = x + a s^2 x^3), reproducing the trained operating point of
    the nonlinearity while preserving overall gain.
    """
    cur = np.asarray(x.samples, dtype=np.float64)
    if np.max(np.abs(cur)) == 0:
        raise ValueError("cannot apply DPD to an all-zero signal")
    sig = x.with_samples(cur)
    for i, block in enumerate(artifact.model.layers):
        if isinstance(block, FirBlock):
            sig = sig.with_samples(kernels.fir_same(sig.samples, block.taps))
        else:
            amp = artifact.nl_input_amplitudes.get(i, 0.0)
            if amp <= 0:
                raise ValueError("artifact has no positive stored amplitude "
                                 f"for nonlinear block {i}")
            peak = float(np.max(np.abs(sig.samples)))
            if peak == 0:
                raise ValueError(f"signal entering nonlinear block {i} is all "
                                 "zero")
            s = amp / peak
            scaled = sig.with_samples(sig.samples * s)
            sig = nl_apply(block, scaled)
            sig = sig.with_samples(sig.samples / s)
    return sig


def rescale_nl_coeff(a, s, order=3):
    """Coefficient valid after input amplitudes change by factor s:
    a * s**(order-1), from f(s x)/s = x + a s^(m-1) x^m."""
    if s <= 0:
        raise ValueError("amplitude gain must be > 0")
    return a * s ** (order - 1)


def rescale_artifact(artifact, s):
    """New artifact whose polynomial coefficients are rescaled for an
    amplitude change by factor s (stored amplitudes scaled to match)."""
    model = artifact.model.copy()
    amps = {}
    for i, block in enumerate(model.layers):
        if isinstance(block, PolyNlBlock):
            block.coeffs = {m: rescale_nl_coeff(a, s, m)
                            for m, a in block.coeffs.items()}
            amps[i] = artifact.nl_input_amplitudes.get(i, 1.0) * s
    return DpdArtifact(model=model, nl_input_amplitudes=amps,
                       final_loss=artifact.final_loss,
                       iterations=artifact.iterations)
