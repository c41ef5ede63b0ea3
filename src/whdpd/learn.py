"""Backpropagation through the WH cascade, Adam updates, and the
indirect-learning loop that turns a fitted post-estimator into a
pre-distorter.

Gradients are normalized by the sample count N (pure learning-rate
rescaling; fixed points are unchanged) so tolerances and learning rates are
length-independent. The training objective is therefore
0.5*||y - ref||^2 / N.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dsp import _as_array, rms_normalize, synchronize
from .model import (FirBlock, Plan, PolyNlBlock, WhModel, model_from_dict,
                    model_to_dict, run_cascade, wh_forward)

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the fit's relative loss change is measured over this many iterations
TOL_WINDOW = 10


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, iteration):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration


def _layout(model):
    """Per block, its coefficients' keys in pack's order: range(K) for the
    taps of an FIR block, the orders() of a polynomial block. A block of
    another type raises TypeError, as run_cascade does."""
    layout = []
    for b in model.layers:
        if isinstance(b, FirBlock):
            layout.append(range(b.taps.size))
        elif isinstance(b, PolyNlBlock):
            layout.append(b.orders())
        else:
            raise TypeError(f"unknown block type {type(b).__name__}")
    return layout


def _split(flat, layout):
    """A vector in pack's layout cut into one view per block."""
    parts, end = [], 0
    for e in layout:
        parts.append(flat[end:end + len(e)])
        end += len(e)
    return parts


class WhGradients:
    """A gradient over the model's coefficients: flat, a vector in pack's
    layout (layout, see _layout), and per_layer block by block (an array
    per FIR block, an order->value dict per polynomial block).

    per_layer is formed from flat on each access, as copies: writing to it
    does not change the gradient.
    """

    def __init__(self, layout, flat):
        self.layout, self.flat = layout, flat

    @property
    def per_layer(self):
        parts = _split(self.flat, self.layout)
        return [dict(zip(e, map(float, part))) if isinstance(e, tuple)
                else part.copy() for e, part in zip(self.layout, parts)]

    def norm(self):
        return math.sqrt(self.flat @ self.flat)


def pack(model):
    """The model's coefficients as one vector theta, block by block: FIR
    taps as stored, polynomial coefficients by ascending order."""
    return np.concatenate([b.taps if isinstance(b, FirBlock) else b.values()
                           for b in model.layers])


def _unpack(parts, model, layout):
    """Write one part per block into the model; FIR taps that are their
    part already need no write."""
    for block, e, part in zip(model.layers, layout, parts):
        if isinstance(block, PolyNlBlock):
            block.coeffs.update(zip(e, part.tolist()))
        elif block.taps is not part:
            block.taps[:] = part
    return model


def _residual(y_out, reference, frame=None):
    """y - ref, formed in the frame's samples if a frame is given."""
    y, r = _as_array(y_out), _as_array(reference)
    if y.shape != r.shape:
        raise ValueError("output/reference length mismatch")
    return np.subtract(y, r, out=None if frame is None else frame.samples)


def _energy(residual):
    return 0.5 * float(kernels.inner(residual, residual))


def loss(y_out, reference):
    """0.5 * r.r with r = y - ref."""
    return _energy(_residual(y_out, reference))


def wh_backward(model, intermediates, reference, residual=None, plan=None):
    """Exact gradients of the normalized loss w.r.t. every coefficient.

    intermediates must come from wh_forward on the same model and input: one
    input per layer plus the final output. residual, the output minus
    reference, is formed here unless the caller passes the one it has. FIR
    gradients are the adjoint of the same-length zero-padded convolution
    (correlation with the flipped filter restricted to the same window);
    polynomial gradients are dE/da_m = sum_n g_n y_n^m with local slope
    1 + sum m a_m y^(m-1), both from one chain of powers of y. Given the
    plan of the forward, the layout, the polynomial coefficients and the
    powers are the plan's, each FIR block's output gradient is held in its
    frame, and the gradient vector is the plan's flat.
    """
    if len(intermediates) != len(model.layers) + 1:
        raise ValueError("intermediates do not match the model")
    if residual is None:
        residual = _residual(intermediates[-1], reference)
    # the pass is linear in the residual: run it on the residual and scale
    # the gradient vector by 1/N once (exact when N is a power of two)
    g, n = residual, len(residual)
    if plan is None:
        layout = _layout(model)
        grads = [None] * len(model.layers)
        flat = np.empty(sum(map(len, layout)))
    else:
        layout, grads, flat = plan.layout, plan.grads, plan.flat
    pos = flat.size
    for i in range(len(model.layers) - 1, -1, -1):
        block, keys = model.layers[i], layout[i]
        x_in = intermediates[i]
        if len(x_in) != n:
            raise ValueError("intermediates do not match the model")
        pos -= len(keys)
        # at i == 0, g would become the gradient w.r.t. the model input,
        # which nothing reads
        if isinstance(block, FirBlock):
            k = block.taps.size
            if grads[i] is not None:
                g = grads[i].hold(g)
            flat[pos:pos + k] = kernels.fir_grad_taps(g, x_in, k)
            if i > 0:
                g = kernels.fir_grad_input(g, block.taps)
        elif keys:
            p, coeffs = ((kernels.powers(x_in, keys[-1]), block.values())
                         if plan is None else (plan.powers[i], plan.parts[i]))
            for j, m in enumerate(keys):
                flat[pos + j] = kernels.inner(g, p[m - 1])
            if i > 0:
                # the slope and then the gradient into the block before are
                # formed in that block's gradient frame, if it has one
                before = grads[i - 1]
                slope = kernels.poly_slope(p, keys, coeffs, None if before
                                           is None else before.samples)
                g = np.multiply(slope, g, out=slope)
    flat /= n
    return WhGradients(layout, flat)


@dataclass
class FitConfig:
    """An Adam fit's iteration budget, its learning rates for the FIR taps
    and the nonlinear coefficients, and tol.

    A fit stops when its loss changes by less than tol, relative, over
    TOL_WINDOW steps. The losses it reads are the float32 step losses
    (kernels.CASCADE_DTYPE), which resolve about 1e-7 of the loss. So a fit
    whose step loss repeats exactly over TOL_WINDOW steps stops, whatever
    tol is. Summing the step loss in float64 would cost about 4-18 us per
    step at N = 4096 to 16384, and is not done.
    """

    iterations: int = 2000
    lr_taps: float = 1e-3
    lr_nl: float = 1e-4
    tol: float = 1e-9    # relative loss change over TOL_WINDOW iterations

    def __post_init__(self):
        if (isinstance(self.iterations, bool)
                or not isinstance(self.iterations, numbers.Integral)):
            raise ValueError("iterations must be an integer")
        if self.iterations < 1:
            raise ValueError("iteration budget must be >= 1")
        # written so that NaN fails each check; a zero rate holds its
        # coefficients fixed
        for name in ("lr_taps", "lr_nl"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")


class AdamState:
    """Adam moments over the packed coefficient vector theta of one model.

    Taps and nonlinear coefficients get separate learning rates because
    their magnitudes differ by orders of magnitude in practice; a zero
    lr_nl holds the nonlinearity fixed. The model's coefficient layout,
    each coordinate's learning rate (rate) and theta, packed from the model
    here, are recorded once. parts cuts theta into one view per block; a
    fit makes them its model's FIR taps, so that theta is the one store of
    the coefficients it steps. adam_step updates theta, m and v in place,
    through two vectors of its own (work).
    """

    def __init__(self, model, lr_taps=FitConfig.lr_taps,
                 lr_nl=FitConfig.lr_nl):
        self.layout = _layout(model)
        self.rate = np.repeat([lr_taps if isinstance(e, range) else lr_nl
                               for e in self.layout],
                              [len(e) for e in self.layout])
        self.theta = pack(model)
        self.parts = _split(self.theta, self.layout)
        self.t = 0
        self.m, self.v, *self.work = np.zeros((4, self.rate.size))


def _laid_out(model, layout):
    """Whether layout is the model's (see _layout), checked block by block
    without building the model's layout."""
    if len(model.layers) != len(layout):
        return False
    for b, e in zip(model.layers, layout):
        if not (isinstance(b, FirBlock) and b.taps.size == len(e)
                if isinstance(e, range) else
                isinstance(b, PolyNlBlock) and b.coeffs.keys() == set(e)):
            return False
    return True


def adam_step(state, model, grads):
    """One bias-corrected Adam update of state.theta, in place, written
    into the model (FIR taps that are the state's parts need no write);
    returns (state, model). Taps step with lr_taps, polynomial coefficients
    with lr_nl."""
    if grads.layout != state.layout or not _laid_out(model, state.layout):
        raise ValueError("gradient/state/model coefficient layout mismatch")
    g, m, v = grads.flat, state.m, state.v
    a, b = state.work
    state.t += 1
    # m = BETA1*m + (1-BETA1)*g and v = BETA2*v + (1-BETA2)*g**2
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=a)
    v *= BETA2
    v += np.multiply(np.square(g, out=a), 1.0 - BETA2, out=a)
    # theta -= rate * m_hat / (sqrt(v_hat) + EPS)
    np.divide(m, 1.0 - BETA1 ** state.t, out=a)
    np.divide(v, 1.0 - BETA2 ** state.t, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a *= state.rate
    a /= b
    state.theta -= a
    _unpack(state.parts, model, state.layout)
    return state, model


@dataclass
class DpdArtifact:
    """Trained model plus the stored nonlinear-block input amplitudes
    (max absolute sample entering each PolyNlBlock on the final pass)."""

    model: WhModel
    nl_input_amplitudes: dict
    final_loss: float
    iterations: int
    history: list = field(default_factory=list, repr=False)


def artifact_to_dict(artifact):
    doc = model_to_dict(artifact.model)
    doc["nl_input_amplitudes"] = {str(k): v for k, v
                                  in artifact.nl_input_amplitudes.items()}
    doc["final_loss"] = artifact.final_loss
    doc["iterations"] = artifact.iterations
    return doc


def artifact_from_dict(doc):
    amps = doc["nl_input_amplitudes"]
    if not isinstance(amps, dict):
        raise TypeError("nl_input_amplitudes must be a block -> amplitude "
                        f"mapping, not {type(amps).__name__}")
    model = model_from_dict(doc)
    amps = {int(k): float(v) for k, v in amps.items()}
    stray = sorted(set(amps) - {i for i, b in enumerate(model.layers)
                                if isinstance(b, PolyNlBlock)})
    if stray:
        raise ValueError(f"nl_input_amplitudes names blocks {stray}, which "
                         "are not polynomial blocks")
    return DpdArtifact(
        model=model,
        nl_input_amplitudes=amps,
        final_loss=float(doc["final_loss"]),
        iterations=int(doc["iterations"]))


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
    TOL_WINDOW iterations drops below cfg.tol. What the steps reuse (the
    layout, frames of the FIR blocks' inputs and gradients and the
    buffers that each step's arrays are formed in, see model.Plan) is
    built once per fit, and the steps run in its dtype,
    kernels.CASCADE_DTYPE: the history holds their losses. Returns the model
    of the step with the least of those losses (so, up to their rounding,
    the final loss never exceeds the initial one), with the final loss and
    the amplitudes of one float64 forward of that model on the capture.
    """
    ref = _as_array(reference)
    if ref.shape != received.samples.shape:
        raise ValueError("output/reference length mismatch")
    model = init.copy()
    state = AdamState(model, lr_taps=cfg.lr_taps, lr_nl=cfg.lr_nl)
    # the state's theta is the fit's one coefficient store: the FIR taps
    # become views into it, which adam_step updates in place
    for block, part in zip(model.layers, state.parts):
        if isinstance(block, FirBlock):
            block.taps = part
    plan = Plan(model, received.samples, ref, state.layout, state.parts)
    n = ref.size
    history = []
    best_loss, best_theta = np.inf, None
    for it in range(cfg.iterations):
        out, inter = wh_forward(model, plan.x_in, plan)
        r = _residual(out, plan.ref, plan.grads[-1])
        j = _energy(r) / n
        if not math.isfinite(j):
            raise TrainingDivergedError(it)
        if j < best_loss:
            best_loss, best_theta = j, state.theta.copy()
        grads = wh_backward(model, inter, plan.ref, residual=r, plan=plan)
        history.append((it, j, grads.norm()))
        adam_step(state, model, grads)
        if it >= TOL_WINDOW:
            prev = history[-1 - TOL_WINDOW][1]
            if prev > 0 and abs(j - prev) / prev < cfg.tol:
                break
    state.theta[:] = best_theta
    _unpack(state.parts, model, state.layout)
    # the returned model in float64, by run_cascade without the plan, so
    # that final_loss and the stored amplitudes carry no float32 rounding
    out, inter = run_cascade(model, received.samples)
    return DpdArtifact(model=model,
                       nl_input_amplitudes=_nl_input_amplitudes(model, inter),
                       final_loss=loss(out, ref) / n,
                       iterations=len(history),
                       history=history)


# the largest condition number of a Gram matrix that fit_linear solves:
# its relative error in the taps is up to about this times 2.2e-16
MAX_GRAM_COND = 1e12


def gram(x, k):
    """X^T X for the N x K matrix X[n, j] = x[n + K//2 - j] (x zero outside
    [0, N)) that fir_same(x, h) multiplies h by.

    One correlation gives the first column, G[i, 0] = sum_n x[n+c-i] x[n+c]
    with c = K//2, and each later entry follows from its upper-left
    neighbour, G[i+1, j+1] = G[i, j] + a_i a_j - b_i b_j with a_i =
    x[c-1-i] and b_i = x[N+c-1-i]: the sums of the two differ by the sample
    that enters at one end and the one that leaves at the other (the
    covariance method of linear prediction). O(NK + K^2), and no N x K
    matrix is formed; G is exactly symmetric.
    """
    n, c = len(x), k // 2
    g = np.empty((k, k))
    # fir_same with the unit filter e_0 is x advanced by c
    g[:, 0] = kernels.fir_grad_taps(kernels.fir_same(x, np.eye(1, k)[0]),
                                    x, k)
    g[0] = g[:, 0]
    padded = np.concatenate([np.zeros(k), x, np.zeros(k)])
    at = k + c - 1 - np.arange(k - 1)
    a, b = padded[at], padded[at + n]
    step = np.outer(a, a) - np.outer(b, b)
    for i in range(k - 1):
        np.add(g[i, :-1], step[i], out=g[i + 1, 1:])
    return g


def _loss_and_grad_norm(model, x, reference):
    """The normalized loss of model on input signal x, and the norm of its
    gradient."""
    out, inter = wh_forward(model, x)
    r = _residual(out, reference)
    grads = wh_backward(model, inter, reference, residual=r)
    return _energy(r) / len(r), grads.norm()


def fit_linear(received, reference, k):
    """Linear-only post-estimator: the K-tap same-length FIR h that
    minimizes 0.5*||fir_same(x, h) - ref||^2 / N, solved from the normal
    equations G h = X^T ref (the least-squares, or Wiener, equalizer; see
    gram).

    received must already be synchronized and RMS-matched to reference.
    Raises ValueError on a sample that is not finite, and when G is
    singular or too ill-conditioned to solve (MAX_GRAM_COND): N < K, or a
    capture with no energy in some band. The artifact's history holds the
    unit-centre-tap filter's loss and gradient norm at iteration 0, and the
    solution's at 1; the artifact is the better of the two, so its loss
    never exceeds the first.
    """
    x, ref = received.samples, _as_array(reference)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ref))):
        raise ValueError("linear DPD needs a finite capture and reference")
    start = WhModel([FirBlock.identity(k)])
    history = [(0, *_loss_and_grad_norm(start, received, reference))]
    g = gram(x, k)
    w = np.linalg.eigvalsh(g)
    cond = w[-1] / w[0] if w[0] > 0 else math.inf
    if cond >= MAX_GRAM_COND:
        raise ValueError(
            f"cannot fit a {k}-tap linear DPD to {len(x)} captured samples: "
            f"the capture's Gram matrix (N = {len(x)}, K = {k}) has "
            f"condition number {cond:.3g}, above {MAX_GRAM_COND:.0e}; "
            "it needs N >= K and energy across the band")
    solved = WhModel([FirBlock(np.linalg.solve(
        g, kernels.fir_grad_taps(ref, x, k)))])
    history.append((1, *_loss_and_grad_norm(solved, received, reference)))
    # when the start is already optimal (an identity channel), rounding can
    # leave the solution's loss a hair above it
    j0, j1 = history[0][1], history[1][1]
    return DpdArtifact(model=solved if j1 <= j0 else start,
                       nl_input_amplitudes={}, final_loss=min(j0, j1),
                       iterations=1, history=history)


def capture(tx_signal, channel):
    """The channel's response to tx_signal, synchronized to it and
    RMS-matched: what indirect learning fits a post-estimator to."""
    _, aligned = synchronize(tx_signal, channel(tx_signal))
    return rms_normalize(aligned, tx_signal.rms())


def indirect_learn(tx_signal, channel, init, cfg):
    """One-shot indirect learning: pass the non-DPD signal through the
    channel, synchronize and RMS-match the capture, fit the post-estimator,
    and return it as the pre-distorter artifact."""
    return fit_postestimator(capture(tx_signal, channel), tx_signal, init,
                             cfg)


def apply_dpd(artifact, x):
    """Run the trained cascade as a pre-distorter, in
    kernels.CASCADE_DTYPE (float32) as a fit step runs it; returns a
    float64 signal.

    The rail is cast to float32 once, and the cascade runs on the cast by
    run_cascade; a DAC of 8 to 16 bits after it keeps fewer bits than
    float32's 24. Before each nonlinear block the signal is rescaled so
    its peak equals the stored training amplitude, and the scale is undone
    afterwards (f(s*x)/s = x + a s^2 x^3), reproducing the trained
    operating point of the nonlinearity while preserving overall gain.
    Raises ValueError on a rail that is all zero, or not finite, in
    float32.
    """
    # a sample above float32's largest value casts to inf: the check below
    # names it
    with np.errstate(over="ignore"):
        y = x.samples.astype(kernels.CASCADE_DTYPE)
    peak = float(np.max(np.abs(y)))
    if peak == 0:
        raise ValueError("cannot apply DPD to an all-zero signal")
    # written so that NaN fails it
    if not peak < math.inf:
        top = np.finfo(kernels.CASCADE_DTYPE).max
        raise ValueError(
            "cannot apply DPD to a signal that is not finite in float32: "
            "it runs in float32, and a sample is NaN, infinite or above "
            f"float32's largest magnitude {top:.4g}")
    amps = artifact.nl_input_amplitudes

    def scale(i, y):
        amp = amps.get(i, 0.0)
        # written so that NaN fails it
        if not 0 < amp < math.inf:
            raise ValueError("artifact has no positive stored amplitude "
                             f"for nonlinear block {i} (it must be finite "
                             "and > 0)")
        peak = float(np.max(np.abs(y)))
        if peak == 0:
            raise ValueError(f"signal entering nonlinear block {i} is all "
                             "zero")
        return amp / peak

    out, _ = run_cascade(artifact.model, y, scale)
    return x.with_samples(out)


def dpd_key(artifact):
    """Everything of an artifact that apply_dpd reads, as one comparable
    value: the coefficient layout (each block's kind with its tap count or
    polynomial orders), the bits of the packed coefficients and the stored
    amplitudes with their types. Two artifacts with equal keys pre-distort
    alike; None, no artifact, is its own key."""
    if artifact is None:
        return None
    model = artifact.model
    return (tuple(_layout(model)), pack(model).tobytes(),
            tuple((i, type(a), a)
                  for i, a in artifact.nl_input_amplitudes.items()))


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
    for block in model.layers:
        if isinstance(block, PolyNlBlock):
            block.coeffs = {m: rescale_nl_coeff(a, s, m)
                            for m, a in block.coeffs.items()}
    amps = {i: a * s for i, a in artifact.nl_input_amplitudes.items()}
    return DpdArtifact(model=model, nl_input_amplitudes=amps,
                       final_loss=artifact.final_loss,
                       iterations=artifact.iterations)
