import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whdpd import kernels, learn
from whdpd.dsp import SampledSignal, snr_db, synchronize
from whdpd.experiment import save_artifact
from whdpd.kernels import fir_grad_input, fir_grad_taps, fir_same
from whdpd.learn import (AdamState, DpdArtifact, FitConfig,
                         TrainingDivergedError, WhGradients, adam_step,
                         apply_dpd, artifact_from_dict, artifact_to_dict,
                         fit_postestimator, indirect_learn, loss, pack,
                         rescale_artifact, rescale_nl_coeff, wh_backward)
from whdpd.model import (FirBlock, PolyNlBlock, WhModel, nl_apply,
                         run_cascade, wh_forward)


def sig(samples):
    return SampledSignal(np.asarray(samples, dtype=float))


def random_model(rng, n_fir_taps=(5, 3), nl_coeffs=({3: 0.1},)):
    layers = [FirBlock(rng.normal(size=n_fir_taps[0]) * 0.3)]
    layers[0].taps[n_fir_taps[0] // 2] += 1.0
    for coeffs in nl_coeffs:
        layers.append(PolyNlBlock(dict(coeffs)))
    layers.append(FirBlock(rng.normal(size=n_fir_taps[1]) * 0.3))
    return WhModel(layers)


def numeric_gradients(model, x, ref, eps=1e-6):
    """Central finite differences of the normalized loss; the oracle."""
    n = x.samples.size

    def j(m):
        out, _ = wh_forward(m, x)
        return loss(out, ref) / n

    grads = []
    for li, block in enumerate(model.layers):
        if isinstance(block, FirBlock):
            g = np.zeros(block.taps.size)
            for k in range(block.taps.size):
                mp = model.copy()
                mp.layers[li].taps[k] += eps
                mm = model.copy()
                mm.layers[li].taps[k] -= eps
                g[k] = (j(mp) - j(mm)) / (2 * eps)
            grads.append(g)
        else:
            g = {}
            for m in block.coeffs:
                mp = model.copy()
                mp.layers[li].coeffs[m] += eps
                mm = model.copy()
                mm.layers[li].coeffs[m] -= eps
                g[m] = (j(mp) - j(mm)) / (2 * eps)
            grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-6, abs_=1e-9):
    for ga, gn in zip(analytic.per_layer, numeric):
        if isinstance(gn, dict):
            pairs = [(ga[m], gn[m]) for m in gn]
        else:
            pairs = zip(ga, gn)
        for a, b in pairs:
            assert abs(a - b) <= max(rel * abs(b), abs_)


# --- loss -----------------------------------------------------------------

def test_loss_zero_residual():
    r = sig(np.random.default_rng(0).normal(size=16))
    assert loss(r, r) == 0.0


def test_loss_hand_case():
    assert loss(sig([1.0, 1.0]), sig([0.0, 0.0])) == pytest.approx(1.0)


def test_loss_rejects_length_mismatch():
    with pytest.raises(ValueError):
        loss(sig([1.0]), sig([1.0, 2.0]))


# --- backward pass --------------------------------------------------------

def test_backward_zero_residual_gives_zero_grads():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    x = sig(rng.normal(size=32))
    out, inter = wh_forward(model, x)
    grads = wh_backward(model, inter, out)
    assert grads.norm() == 0.0


def test_backward_matches_finite_differences():
    # orders 2..5 in one block: one chain of powers serves every order's
    # dE/da_m and the local slope
    for coeffs in ({3: 0.1, 2: 0.05}, {2: 0.05, 3: 0.1, 4: -0.03, 5: 0.02}):
        rng = np.random.default_rng(2)
        model = random_model(rng, (5, 5), (coeffs,))
        x = sig(rng.normal(size=32))
        ref = sig(rng.normal(size=32))
        _, inter = wh_forward(model, x)
        grads = wh_backward(model, inter, ref)
        assert set(grads.per_layer[1]) == set(coeffs)
        assert_grads_close(grads, numeric_gradients(model, x, ref))


def test_backward_flat_gradient_is_per_layer_in_pack_layout():
    rng = np.random.default_rng(7)
    model = random_model(rng, (4, 3), ({3: 0.1, 2: 0.05},))
    x = sig(rng.normal(size=40))
    _, inter = wh_forward(model, x)
    grads = wh_backward(model, inter, sig(rng.normal(size=40)))
    per_layer = grads.per_layer
    assert np.array_equal(grads.flat, np.concatenate(
        [per_layer[0], [per_layer[1][2], per_layer[1][3]], per_layer[2]]))
    layout = learn._layout(model)
    rebuilt = WhGradients(layout, np.concatenate(
        [part if isinstance(keys, range) else [part[m] for m in keys]
         for keys, part in zip(layout, per_layer)]))
    assert np.array_equal(rebuilt.flat, grads.flat)
    assert rebuilt.norm() == grads.norm()


def test_gradient_per_layer_is_a_snapshot():
    rng = np.random.default_rng(8)
    model = random_model(rng, (4, 3), ({3: 0.1},))
    x = sig(rng.normal(size=40))
    _, inter = wh_forward(model, x)
    grads = wh_backward(model, inter, sig(rng.normal(size=40)))
    flat = grads.flat.copy()
    per_layer = grads.per_layer
    per_layer[0][:] = 7.0
    per_layer[1][3] = 7.0
    assert np.array_equal(grads.flat, flat)


def test_backward_single_fir_equals_lms_correlation():
    rng = np.random.default_rng(3)
    h = rng.normal(size=5)
    model = WhModel([FirBlock(h)])
    x = rng.normal(size=64)
    ref = rng.normal(size=64)
    _, inter = wh_forward(model, sig(x))
    grads = wh_backward(model, inter, sig(ref))
    # classic least-squares gradient: correlation of the residual with the
    # input, restricted to the same convolution window
    resid = (fir_same(x, h) - ref) / x.size
    c = len(h) // 2
    expected = np.zeros(len(h))
    for k in range(len(h)):
        for n in range(x.size):
            idx = n + c - k
            if 0 <= idx < x.size:
                expected[k] += resid[n] * x[idx]
    assert np.max(np.abs(grads.per_layer[0] - expected)) < 1e-12


def test_backward_rejects_mismatched_intermediates():
    rng = np.random.default_rng(4)
    model = random_model(rng)
    x = sig(rng.normal(size=32))
    _, inter = wh_forward(model, x)
    with pytest.raises(ValueError):
        wh_backward(model, inter[:-2], x)
    inter[1] = inter[1][:-1]
    with pytest.raises(ValueError, match="intermediates do not match"):
        wh_backward(model, inter, x)


def test_adjoint_consistency():
    rng = np.random.default_rng(5)
    for k in (1, 3, 4, 7):
        x = rng.normal(size=50)
        h = rng.normal(size=k)
        g = rng.normal(size=50)
        lhs = np.dot(fir_same(x, h), g)
        rhs = np.dot(x, fir_grad_input(g, h))
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(1, 80),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, k=15, seed=0)
@example(n=1, k=2, seed=0)
@example(n=3, k=80, seed=0)
def test_fir_adjoints_all_shapes(n, k, seed):
    # <fir_same(x, h), g> = <x, fir_grad_input(g, h)> = <h, fir_grad_taps(g, x, K)>
    # for every N and K, including even K and K > N
    rng = np.random.default_rng(seed)
    x, g, h = rng.normal(size=n), rng.normal(size=n), rng.normal(size=k)
    gh = fir_grad_taps(g, x, k)
    assert gh.shape == (k,)
    y = np.dot(fir_same(x, h), g)
    assert np.dot(x, fir_grad_input(g, h)) == pytest.approx(y, abs=1e-10)
    assert np.dot(h, gh) == pytest.approx(y, abs=1e-10)


# filter lengths on either side of the block length 16 and of B + 1
FIR_KS = (1, 2, 15, 16, 17, 80, 200, 201, 202, 401, 402, 801)


@pytest.mark.parametrize("k", FIR_KS)
@pytest.mark.parametrize("n", (1, 15, 16, 17, 31, 33, 1000))
def test_fir_kernels_match_direct_convolution(n, k):
    # the blocked-GEMM kernels against the full convolution they window;
    # the sizes straddle the block length max(K-1, 16) and include K > N,
    # and the K past B + 1 run on more than two row blocks
    rng = np.random.default_rng(1000 * n + k)
    x, g, h = rng.normal(size=n), rng.normal(size=n), rng.normal(size=k)
    c = k // 2
    pairs = ((fir_same(x, h), np.convolve(x, h)[c:c + n]),
             (fir_grad_input(g, h),
              np.convolve(g, h[::-1])[k - 1 - c:k - 1 - c + n]))
    for got, ref in pairs:
        assert got.shape == (n,)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("k", FIR_KS)
@pytest.mark.parametrize("n", (1, 15, 16, 17, 31, 33, 1000, 16384))
def test_fir_grad_taps_matches_direct_correlation(n, k):
    # gh[j] = sum_i g[i] x[i+c-j] over the i where x is defined, one slice
    # product per tap, against the blocked-GEMM diagonal sums
    rng = np.random.default_rng(1000 * n + k + 1)
    x, g = rng.normal(size=n), rng.normal(size=n)
    c = k // 2
    ref = np.zeros(k)
    for j in range(k):
        lo, hi = max(0, j - c), min(n, n + j - c)
        if lo < hi:
            ref[j] = g[lo:hi] @ x[lo + c - j:hi + c - j]
    got = fir_grad_taps(g, x, k)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("k", FIR_KS)
@pytest.mark.parametrize("n", (1, 16, 33, 1000))
def test_fir_kernels_work_in_float32_on_float32_frames(n, k):
    # a frame's dtype is the kernels' working dtype: on float32 frames, and
    # on float32 arrays, whose one-off frames are float32, the kernels
    # return float32 within float32 rounding of the float64 convolution at
    # both centre offsets (c = K//2 forward, K-1-K//2 adjoint; they differ
    # for even K); u = 2^-24 per rounding, one per product and sum term
    # and one for each cast input
    rng = np.random.default_rng(1000 * n + k + 2)
    x, g, h = rng.normal(size=n), rng.normal(size=n), rng.normal(size=k)
    x32, g32 = x.astype(np.float32), g.astype(np.float32)
    c, u = k // 2, 2.0 ** -24
    fir_ref = np.convolve(x, h)[c:c + n]
    adj_ref = np.convolve(g, h[::-1])[k - 1 - c:k - 1 - c + n]
    taps_ref = fir_grad_taps(g, x, k)
    fx, fg = (kernels.Frame(n, k, np.float32).hold(a) for a in (x32, g32))
    for sx, sg in ((fx, fg), (x32, g32)):
        for got, ref, bound in (
                (fir_same(sx, h), fir_ref, np.abs(h).sum() * np.abs(x).max()
                 * (k + 2) * u),
                (fir_grad_input(sg, h), adj_ref, np.abs(h).sum()
                 * np.abs(g).max() * (k + 2) * u),
                (fir_grad_taps(sg, sx, k), taps_ref, np.abs(g).sum()
                 * np.abs(x).max() * (n + 2) * u)):
            assert got.dtype == np.float32 and got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=bound)
    assert fx.buf.dtype == np.float32


@pytest.mark.parametrize("dtype, framed", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.int64, np.float64), (np.float16, np.float64)])
def test_a_one_off_frame_takes_float32_and_makes_all_else_float64(dtype,
                                                                   framed):
    x = np.arange(-3, 4).astype(dtype)
    frame = kernels._frame(x, 5)
    assert frame.buf.dtype == framed
    assert np.array_equal(frame.samples, x)
    assert fir_same(x, FirBlock.identity(5).taps).dtype == framed


def test_poly_kernels_cast_their_coefficients_to_the_signal_dtype():
    # a float64 coefficient would promote a float32 product to float64
    rng = np.random.default_rng(3)
    y = rng.normal(size=100)
    orders, coeffs = (2, 3), np.array([-0.02, 0.1])
    want, p64 = kernels.poly_apply(y, orders, coeffs)
    slope = kernels.poly_slope(p64, orders, coeffs)
    y32 = y.astype(np.float32)
    got, p = kernels.poly_apply(y32, orders, coeffs)
    assert got.dtype == np.float32 and all(a.dtype == np.float32 for a in p)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    got = kernels.poly_slope(p, orders, coeffs)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, slope, rtol=1e-6)
    out = np.empty_like(y32)
    assert kernels.poly_slope(p, orders, coeffs, out) is out


def _blocks(k):
    """(b, m): the band of K taps as m blocks of b rows, the last one
    shorter; d = ceil((K-1)/B) blocks of b = ceil((K-1)/d) >= 16 rows hold
    its last K-1 rows."""
    d = max(-(-(k - 1) // kernels.B), 1)
    return max(-(-(k - 1) // d), 16), d + 1


def _padded_rows(x, k, c):
    """x copied behind K-1-c zeros and cut into rows of b samples: (b, the
    m row blocks; block j holds the first b+K-1-j*b samples of the rows
    from row j on)."""
    b, m = _blocks(k)
    nb = -(-len(x) // b)
    xp = np.zeros((nb + m - 1) * b)
    xp[k - 1 - c:k - 1 - c + len(x)] = x
    return b, [xp[j * b:(j + nb) * b].reshape(nb, b)[:, :b + k - 1 - j * b]
               for j in range(m)]


def _reference_fir(x, h, c):
    # the kernels' products, on rows of a padded copy of x
    k = len(h)
    b, rows = _padded_rows(x, k, c)
    hp = np.zeros(2 * b + k - 2)
    hp[b - 1:b - 1 + k] = h[::-1]
    t = np.ndarray((b + k - 1, b), np.float64, hp, hp.itemsize * (b - 1),
                   (hp.itemsize, -hp.itemsize))
    y = rows[0] @ t[:b]
    for j in range(1, len(rows)):
        y += rows[j] @ t[j * b:(j + 1) * b]
    return y.ravel()[:len(x)]


def _reference_grad_taps(g, x, k):
    b, rows = _padded_rows(x, k, k // 2)
    gt = _padded_rows(g, k, k - 1)[1][0].T
    a = np.empty((b, b + k - 1))
    for j, r in enumerate(rows):
        np.matmul(gt, r, out=a[:, j * b:(j + 1) * b])
    diagonals = np.ndarray((b, k), np.float64, a, 0,
                           (a.itemsize * (b + k), a.itemsize))
    return np.add.reduce(diagonals, axis=0)[::-1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(1, 450),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, k=2, seed=0)
@example(n=3, k=40, seed=0)
@example(n=64, k=201, seed=0)
@example(n=64, k=202, seed=0)
@example(n=5, k=401, seed=0)
@example(n=64, k=450, seed=0)
def test_fir_kernels_give_the_same_bits_on_frames(n, k, seed):
    # a frame serves every centre offset from one buffer; the kernels read
    # it without a copy, and on a frame or a plain array give the bits of
    # the same products on a padded copy of the signal, for K on either
    # side of B + 1, where the band is cut into more than two blocks
    rng = np.random.default_rng(seed)
    x, g, h = rng.normal(size=n), rng.normal(size=n), rng.normal(size=k)
    fx, fg = kernels.Frame(n, k).hold(x), kernels.Frame(n, k).hold(g)
    assert len(fx) == n and fx.hold(fx.samples) is fx
    want = (_reference_fir(x, h, k // 2),
            _reference_fir(g, h[::-1], k - 1 - k // 2),
            _reference_grad_taps(g, x, k))
    for _ in range(2):  # the second call reuses the kept rows and band
        for got in ((fir_same(fx, h), fir_grad_input(fg, h),
                     fir_grad_taps(fg, fx, k)),
                    (fir_same(x, h), fir_grad_input(g, h),
                     fir_grad_taps(g, x, k))):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    assert not np.any(np.delete(fx.buf, np.arange(k - 1, k - 1 + n)))


def test_frames_keep_two_blocks_up_to_b_plus_one_taps():
    # every K <= B + 1 keeps the layout it had before the band was cut
    # into row blocks of at most about B: two blocks of max(K-1, 16) rows
    for k in range(1, kernels.B + 2):
        frame = kernels.Frame(100, k)
        assert (frame.b, frame.m) == (max(k - 1, 16), 2)
    for k, b, m in ((kernels.B + 2, 101, 3), (401, 200, 3), (402, 134, 4),
                    (801, 200, 5)):
        frame = kernels.Frame(100, k)
        assert (frame.b, frame.m) == (b, m) == _blocks(k)
        assert [r.shape for r in frame.rows(k // 2)] == (
            [(frame.nb, b)] * (m - 1) + [(frame.nb, k - 1 - (m - 2) * b)])
        assert [t.shape for t in frame.band(np.ones(k))] == (
            [(b, b)] * (m - 1) + [(k - 1 - (m - 2) * b, b)])


def test_fir_kernels_reject_a_frame_for_other_taps():
    frame = kernels.Frame(8, 5)
    with pytest.raises(ValueError, match="frame laid out for 5 taps, not 3"):
        fir_same(frame, np.ones(3))


@pytest.mark.parametrize("n, lead", [(1, 0), (7, 3), (100, 14), (4096, 0)])
def test_aligned_puts_the_lead_value_on_a_64_byte_boundary(n, lead):
    for _ in range(8):
        a = kernels.aligned(n, lead)
        assert a.shape == (n,) and a.dtype == np.float64
        assert a[lead:].ctypes.data % 64 == 0


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("k", [1, 2, 15, 401])
def test_a_one_off_frame_is_aligned_and_zero_filled(n, k):
    # memory just freed, full of NaN, of the size that aligned asks for (7
    # values over), is what malloc hands out next
    size = kernels.Frame(n, k).buf.size
    for _ in range(4):
        dirty = np.full(size + 7, np.nan)
        del dirty
        frame = kernels.Frame(n, k)
        assert len(frame) == n and frame.samples.ctypes.data % 64 == 0
        assert not np.any(frame.buf)


@pytest.mark.parametrize("n, lead", [(1, 0), (7, 3), (40, 15), (4096, 0)])
def test_float32_arrays_and_frames_start_on_a_64_byte_boundary(n, lead):
    # 16 float32 values to a cache line; a frame's buffer, freed full of
    # NaN, is what malloc hands out next
    for _ in range(8):
        a = kernels.aligned(n, lead, np.float32)
        assert a.shape == (n,) and a.dtype == np.float32
        assert a[lead:].ctypes.data % 64 == 0
    for k in (1, 2, 15, 401):
        size = kernels.Frame(n, k, np.float32).buf.size
        dirty = np.full(size + 15, np.nan, np.float32)
        del dirty
        frame = kernels.Frame(n, k, np.float32)
        assert frame.buf.dtype == np.float32 and len(frame) == n
        assert frame.samples.ctypes.data % 64 == 0
        assert not np.any(frame.buf)


def test_inner_is_conjugated_dot():
    rng = np.random.default_rng(5)
    a = rng.normal(size=33) + 1j * rng.normal(size=33)
    b = rng.normal(size=33) + 1j * rng.normal(size=33)
    assert kernels.inner(a, b) == pytest.approx(np.vdot(a, b), rel=1e-14)
    assert kernels.inner(a.real, b.real) == pytest.approx(
        np.dot(a.real, b.real), rel=1e-14)


def test_backward_skips_input_gradient_of_first_block(monkeypatch):
    # the adjoint through layer 0 would be the gradient w.r.t. the model
    # input, which nothing reads
    calls = []
    real = kernels.fir_grad_input
    monkeypatch.setattr(kernels, "fir_grad_input",
                        lambda g, h: calls.append(len(h)) or real(g, h))
    model = WhModel.lnl(5, 3, a=0.1)
    x = sig(np.random.default_rng(6).normal(size=32))
    _, inter = wh_forward(model, x)
    wh_backward(model, inter, x)
    assert calls == [3]


# --- Adam -----------------------------------------------------------------

def test_adam_zero_gradient_keeps_model():
    model = WhModel.lnl(5, 5, a=0.2)
    state = AdamState(model)
    _, inter = wh_forward(model, sig(np.ones(16)))
    out = sig(inter[-1])
    grads = wh_backward(model, inter, out)  # zero residual
    before = model.copy()
    adam_step(state, model, grads)
    for b1, b2 in zip(before.layers, model.layers):
        if isinstance(b1, FirBlock):
            assert np.array_equal(b1.taps, b2.taps)
        else:
            assert b1.coeffs == b2.coeffs


def test_adam_first_step_magnitude():
    model = WhModel([FirBlock([0.0])])
    state = AdamState(model, lr_taps=0.01)
    from whdpd.learn import WhGradients
    grads = WhGradients([range(1)], np.array([0.37]))
    adam_step(state, model, grads)
    assert model.layers[0].taps[0] == pytest.approx(-0.01, rel=1e-4)


def test_adam_converges_on_quadratic():
    # E = 0.5*(h-3)^2 realized as a 1-tap FIR fit with x=[1], ref=[3]
    model = WhModel([FirBlock([0.0])])
    state = AdamState(model, lr_taps=0.1)
    x, ref = sig([1.0]), sig([3.0])
    # independent reference Adam recurrence on the same problem
    theta, m, v, t = 0.0, 0.0, 0.0, 0
    for _ in range(100):
        _, inter = wh_forward(model, x)
        grads = wh_backward(model, inter, ref)
        adam_step(state, model, grads)
        t += 1
        g = theta - 3.0
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert model.layers[0].taps[0] == pytest.approx(3.0, abs=0.05)
    assert model.layers[0].taps[0] == pytest.approx(theta, abs=1e-12)


def test_adam_rejects_shape_mismatch():
    from whdpd.learn import WhGradients
    model = WhModel([FirBlock([0.0, 0.0])])
    state = AdamState(model)
    with pytest.raises(ValueError):
        adam_step(state, model, WhGradients([range(1)], np.array([1.0])))


def test_adam_rejects_gradient_for_other_orders():
    model = WhModel.lnl(3, 3, a=0.1)
    state = AdamState(model)
    grads = WhGradients([range(3), (2,), range(3)], np.ones(7))
    with pytest.raises(ValueError):
        adam_step(state, model, grads)


def test_adam_rejects_state_and_gradient_for_other_block_sizes():
    # lnl(3, 3) and lnl(2, 4) both hold 7 coefficients
    other = WhModel.lnl(3, 3, a=0.1)
    state = AdamState(other)
    grads = WhGradients([range(3), (3,), range(3)], np.ones(7))
    model = WhModel.lnl(2, 4, a=0.1)
    with pytest.raises(ValueError):
        adam_step(state, model, grads)


@pytest.mark.parametrize("edit", [
    lambda m: m.layers[1].coeffs.update({2: 0.0}),
    lambda m: m.layers[1].coeffs.update({2: m.layers[1].coeffs.pop(3)}),
    lambda m: setattr(m.layers[2], "taps", np.zeros(4)),
    lambda m: m.layers.__setitem__(1, FirBlock([1.0])),
    lambda m: m.layers.__setitem__(0, PolyNlBlock({2: 0.0, 3: 0.0, 4: 0.0})),
    lambda m: m.layers.pop(),
], ids=["order-added", "order-replaced", "taps-resized", "poly-to-fir",
        "fir-to-poly", "block-dropped"])
def test_adam_rejects_a_model_edited_to_another_layout(edit):
    # the model is checked against the state's layout before any update
    model = WhModel.lnl(3, 3, a=0.1)
    state = AdamState(model)
    grads = WhGradients(state.layout, np.ones(7))
    edit(model)
    theta = state.theta.copy()
    with pytest.raises(ValueError, match="layout mismatch"):
        adam_step(state, model, grads)
    assert state.t == 0 and np.array_equal(state.theta, theta)


def _fir_poly_fir():
    return WhModel([FirBlock([0.1, 1.0, -0.2]), PolyNlBlock({3: 0.05, 2: -0.02}),
                    FirBlock([0.3, 0.9])])


def test_pack_unpack_round_trip():
    model = _fir_poly_fir()
    theta = pack(model)
    # taps as stored, then the coefficients by ascending order
    assert np.array_equal(theta, [0.1, 1.0, -0.2, -0.02, 0.05, 0.3, 0.9])


def test_adam_step_matches_per_coefficient_recurrence():
    model = _fir_poly_fir()
    before = model.copy()
    grads = WhGradients([range(3), (2, 3), range(2)],
                        np.array([0.3, -1.2, 0.05, 2.5, -0.7, -0.4, 0.8]))
    lr_taps, lr_nl = 0.01, 0.002
    state = AdamState(model, lr_taps=lr_taps, lr_nl=lr_nl)
    adam_step(state, model, grads)
    # first step from zero moments, one coefficient at a time
    pairs = ([(before.layers[0].taps[k], grads.per_layer[0][k], lr_taps,
               model.layers[0].taps[k]) for k in range(3)]
             + [(before.layers[1].coeffs[m], grads.per_layer[1][m], lr_nl,
                 model.layers[1].coeffs[m]) for m in (3, 2)]
             + [(before.layers[2].taps[k], grads.per_layer[2][k], lr_taps,
                 model.layers[2].taps[k]) for k in range(2)])
    for theta, g, lr, got in pairs:
        m = 0.1 * g
        v = 0.001 * g * g
        expected = theta - lr * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_adam_step_frozen_nonlinearity_is_bitwise_unchanged():
    model = _fir_poly_fir()
    coeffs = dict(model.layers[1].coeffs)
    taps = model.layers[0].taps.copy()
    grads = WhGradients([range(3), (2, 3), range(2)],
                        np.array([1.0, 1.0, 1.0, 2.5, -0.7, 1.0, 1.0]))
    state = AdamState(model, lr_nl=0.0)
    for _ in range(3):
        adam_step(state, model, grads)
    assert model.layers[1].coeffs == coeffs
    assert not np.array_equal(model.layers[0].taps, taps)


def test_monotone_descent_smoke():
    rng = np.random.default_rng(6)
    model = random_model(rng)
    state = AdamState(model, lr_taps=1e-4, lr_nl=1e-4)
    x = sig(rng.normal(size=64))
    ref = sig(rng.normal(size=64))
    out, inter = wh_forward(model, x)
    initial = loss(out, ref)
    for _ in range(10):
        out, inter = wh_forward(model, x)
        grads = wh_backward(model, inter, ref)
        adam_step(state, model, grads)
    out, _ = wh_forward(model, x)
    assert loss(out, ref) < initial


# --- fitting --------------------------------------------------------------

def test_fit_already_optimal():
    rng = np.random.default_rng(7)
    ref = sig(rng.normal(size=256))
    art = fit_postestimator(ref, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=50))
    assert art.final_loss == pytest.approx(0.0, abs=1e-15)
    assert max(art.nl_input_amplitudes.values()) > 0


def test_fit_inverts_known_lnl_distortion():
    rng = np.random.default_rng(8)
    ref = sig(rng.normal(size=2048) * 0.4)
    channel = WhModel([FirBlock([0.08, 1.0, -0.06]), PolyNlBlock.cubic(-0.08),
                       FirBlock([0.05, 1.0, 0.04])])
    received, _ = wh_forward(channel, ref)
    art = fit_postestimator(received, ref, WhModel.lnl(15, 15),
                            FitConfig(iterations=1200))
    # composing the fitted model after the distortion recovers the reference
    recovered, _ = wh_forward(art.model, received)
    assert snr_db(ref.samples, recovered.samples) >= 40.0


def test_fit_linear_channel_keeps_a_near_zero():
    rng = np.random.default_rng(9)
    ref = sig(rng.normal(size=2048) * 0.4)
    received, _ = wh_forward(WhModel([FirBlock([0.1, 0.9, 0.15])]), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(11, 11),
                            FitConfig(iterations=1200))
    a3 = [b.coeffs[3] for b in art.model.layers
          if isinstance(b, PolyNlBlock)][0]
    assert abs(a3) < 1e-3


def test_fit_freeze_nonlinear_keeps_a_zero():
    rng = np.random.default_rng(10)
    ref = sig(rng.normal(size=512) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 5, a=0.1), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=100, lr_nl=0.0))
    a3 = [b.coeffs[3] for b in art.model.layers
          if isinstance(b, PolyNlBlock)][0]
    assert a3 == 0.0


def _thetas_per_step(monkeypatch):
    """The list that the packed coefficients of the model at each fit
    step's forward are appended to."""
    thetas = []
    real = learn.wh_forward
    monkeypatch.setattr(learn, "wh_forward", lambda m, x, *plan:
                        thetas.append(pack(m)) or real(m, x, *plan))
    return thetas


def _best_step(art):
    losses = [j for _, j, _ in art.history]
    return losses.index(min(losses))


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_fit_runs_forward_once_per_iteration(monkeypatch, tol):
    # wh_forward runs once per fit step: the coefficients of the step with
    # the least loss are kept, and the final loss and stored amplitudes
    # come from one more forward of them, through run_cascade
    real = learn.wh_forward
    thetas = _thetas_per_step(monkeypatch)
    rng = np.random.default_rng(12)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = real(WhModel.lnl(5, 5, a=0.1), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=60, tol=tol))
    assert len(thetas) == art.iterations
    assert pack(art.model).tobytes() == thetas[_best_step(art)].tobytes()
    out, inter = real(art.model, received)
    assert art.final_loss == loss(out, ref) / ref.samples.size
    assert art.nl_input_amplitudes == {1: float(np.max(np.abs(inter[1])))}


def test_fit_stores_the_amplitudes_of_its_best_step_not_its_last(
        monkeypatch):
    # with large rates the loss rises again after a minimum, so the best
    # step is neither the first nor the last: the returned model is the
    # best step's, and so is the peak of the polynomial input it stores
    thetas = _thetas_per_step(monkeypatch)
    rng = np.random.default_rng(27)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 5, a=0.1), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=30, lr_taps=0.05,
                                      lr_nl=0.01, tol=1e-300))
    best = _best_step(art)
    assert 0 < best < art.iterations - 1
    assert pack(art.model).tobytes() == thetas[best].tobytes()
    out, inter = wh_forward(art.model, received)
    assert art.final_loss == loss(out, ref) / ref.samples.size
    assert art.nl_input_amplitudes == {1: float(np.max(np.abs(inter[1])))}


def test_fit_stops_at_the_first_step_below_tol():
    # the step at which the relative loss change over TOL_WINDOW steps
    # first falls below tol, read from a fit that runs its whole budget
    rng = np.random.default_rng(12)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 5, a=0.1), ref)
    full = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                             FitConfig(iterations=60, tol=1e-300))
    losses = [j for _, j, _ in full.history]
    stop = next(it for it in range(learn.TOL_WINDOW, 60)
                if abs(losses[it] - losses[it - learn.TOL_WINDOW])
                < 1e-2 * losses[it - learn.TOL_WINDOW])
    art = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=60, tol=1e-2))
    assert art.iterations == stop + 1 < 60
    assert art.history == full.history[:stop + 1]


def test_fit_copies_the_model_a_bounded_number_of_times(monkeypatch):
    # the best coefficients are kept as a vector, not as a model copy per
    # improvement
    copies = []
    real = WhModel.copy
    monkeypatch.setattr(WhModel, "copy",
                        lambda self: copies.append(1) or real(self))
    thetas = _thetas_per_step(monkeypatch)
    rng = np.random.default_rng(13)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 5, a=0.1), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(5, 5),
                            FitConfig(iterations=60, tol=1e-300))
    improvements = sum(j < min(h[1] for h in art.history[:i])
                       for i, (_, j, _) in enumerate(art.history) if i)
    assert art.iterations == 60 and improvements > 50
    assert len(copies) <= 2
    assert pack(art.model).tobytes() == thetas[_best_step(art)].tobytes()
    out, _ = wh_forward(art.model, received)
    assert art.final_loss == loss(out, ref) / ref.samples.size


def reference_fit(received, reference, init, cfg):
    """The fit without a plan: fresh arrays on every step, from wh_forward
    on the plain arrays of the fit's dtype that the capture and the
    reference are cast to, wh_backward and adam_step, on a model that owns
    its taps; then one float64 forward of the best step's model. Returns
    (history, best theta, its amplitudes, its float64 loss)."""
    model = init.copy()
    state = AdamState(model, lr_taps=cfg.lr_taps, lr_nl=cfg.lr_nl)
    x, ref = (s.samples.astype(kernels.CASCADE_DTYPE)
              for s in (received, reference))
    n = x.size
    history, best = [], (np.inf, None)
    for it in range(cfg.iterations):
        assert all(b.taps.base is None for b in model.layers
                   if isinstance(b, FirBlock))
        out, inter = wh_forward(model, x)
        assert out.dtype == kernels.CASCADE_DTYPE
        j = loss(out, ref) / n
        if j < best[0]:
            best = (j, model.copy())
        grads = wh_backward(model, inter, ref)
        history.append((it, j, grads.norm()))
        adam_step(state, model, grads)
    out, inter = wh_forward(best[1], received)
    amps = {i: float(np.max(np.abs(inter[i])))
            for i, b in enumerate(best[1].layers)
            if isinstance(b, PolyNlBlock)}
    return history, pack(best[1]), amps, loss(out, reference) / n


def _criterion_1_models():
    from test_acceptance import random_instance
    rng = np.random.default_rng(100)
    return [random_instance(rng)[0] for _ in range(12)]


PLANNED_FIT_MODELS = {
    "fir-only": lambda: WhModel([FirBlock([0.1, 0.9, -0.2, 0.05])]),
    "poly-first": lambda: WhModel([PolyNlBlock({3: 0.05, 2: -0.02}),
                                   FirBlock.identity(5)]),
    "fir-poly-fir-poly": lambda: WhModel([
        FirBlock.identity(5), PolyNlBlock({3: 0.02}), FirBlock([0.2, 0.9]),
        PolyNlBlock({2: 0.01, 3: -0.03})]),
    "fir-fir-empty-poly": lambda: WhModel([
        FirBlock.identity(3), FirBlock([0.1, 1.0, 0.1]), PolyNlBlock({})]),
    "lnl": lambda: WhModel.lnl(7, 5, a=0.01),
    **{f"criterion-1-{i}": (lambda m=m: m.copy())
       for i, m in enumerate(_criterion_1_models())},
}


@pytest.mark.parametrize("n, lr_nl", [(1, 1e-4), (3, 1e-4), (40, 1e-4),
                                      (40, 0.0)],
                         ids=["N=1", "K>N", "N=40", "lr_nl=0"])
@pytest.mark.parametrize("name", sorted(PLANNED_FIT_MODELS))
def test_planned_fit_matches_the_unplanned_loop_bit_for_bit(name, n, lr_nl):
    # frames, taps as views of theta and the forward's powers change no
    # bit of the fit; the models hold odd and even K, and K > N
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 0.5
    received, ref = sig(x), sig(x + 0.1 * x ** 3 + 0.01 * rng.normal(size=n))
    init = PLANNED_FIT_MODELS[name]()
    cfg = FitConfig(iterations=25, lr_taps=1e-2, lr_nl=lr_nl, tol=1e-300)
    art = fit_postestimator(received, ref, init, cfg)
    history, theta, amps, final_loss = reference_fit(received, ref, init,
                                                     cfg)
    assert art.history == history
    assert pack(art.model).tobytes() == theta.tobytes()
    assert art.nl_input_amplitudes == amps
    assert art.final_loss == final_loss


@pytest.mark.parametrize("k1, k2", [(401, 241), (15, 801)])
def test_planned_large_k_fit_matches_the_unplanned_loop_bit_for_bit(k1, k2):
    # filters whose bands are cut into three to five row blocks; the plan's
    # shared product takes each block's GEMM in turn
    rng = np.random.default_rng(k1)
    x = rng.normal(size=3000) * 0.5
    noise = 0.01 * rng.normal(size=3000)
    received, ref = sig(x), sig(x + 0.1 * x ** 3 + noise)
    init = WhModel.lnl(k1, k2, a=0.01)
    assert [kernels.Frame(1, b.taps.size).m for b in init.layers
            if isinstance(b, FirBlock)] == [_blocks(k1)[1], _blocks(k2)[1]]
    cfg = FitConfig(iterations=8, lr_taps=1e-3, lr_nl=1e-4, tol=1e-300)
    art = fit_postestimator(received, ref, init, cfg)
    history, theta, amps, final_loss = reference_fit(received, ref, init,
                                                     cfg)
    assert art.history == history
    assert pack(art.model).tobytes() == theta.tobytes()
    assert art.nl_input_amplitudes == amps
    assert art.final_loss == final_loss


def test_fit_builds_its_frames_once(monkeypatch):
    built = []
    real = kernels.Frame.__init__
    monkeypatch.setattr(kernels.Frame, "__init__",
                        lambda self, *a: built.append(a) or real(self, *a))
    rng = np.random.default_rng(21)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 3, a=0.1), ref)
    counts = []
    for iterations in (10, 60):
        built.clear()
        art = fit_postestimator(received, ref, WhModel.lnl(5, 3),
                                FitConfig(iterations=iterations, tol=1e-300))
        assert art.iterations == iterations
        counts.append(len(built))
    # an input and an output-gradient frame per FIR block in the fit's
    # dtype, whatever the number of steps, and a one-off float64 frame per
    # FIR block in the forward of the returned model
    assert counts == [6, 6]
    fit = np.dtype(kernels.CASCADE_DTYPE).name
    assert sorted((n, k, np.dtype(d).name) for n, k, d in built) == sorted(
        [(256, 3, fit), (256, 3, fit), (256, 5, fit), (256, 5, fit),
         (256, 3, "float64"), (256, 5, "float64")])


def test_fit_derives_its_layout_and_frame_views_once(monkeypatch):
    # the layout, each frame's row cuts and band views, and the arrays that
    # the products are written into are made once per fit
    made = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: made.append(name)
                            or real(*a))

    for owner, name in ((learn, "_layout"), (kernels.Frame, "_cut"),
                        (kernels.Frame, "_views"), (kernels.Frame, "product"),
                        (kernels, "_taps_product")):
        count(owner, name)
    rng = np.random.default_rng(24)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 3, a=0.1), ref)
    counts = []
    for iterations in (10, 60):
        made.clear()
        fit_postestimator(received, ref, WhModel.lnl(5, 3),
                          FitConfig(iterations=iterations, tol=1e-300))
        counts.append(sorted(made))
    # layouts: the state's; rows: one offset per frame, two for the last
    # block's gradient frame; bands: the two forward FIRs and the last
    # block's input gradient; products: one per filter length and one per
    # frame but the first block's gradient frame; and the rows and band
    # of each one-off frame of the returned model's forward
    assert counts[0] == counts[1] == sorted(
        ["_layout"] + ["_cut"] * (5 + 2) + ["_views"] * (3 + 2)
        + ["product"] * 5 + ["_taps_product"] * 2)


def test_fit_steps_write_into_the_plans_arrays(monkeypatch):
    # every step forms the model output, the polynomial input and the
    # gradient vector in the same arrays, and reads the same reference,
    # cast once per fit
    seen = {"out": set(), "poly in": set(), "ref": set(), "flat": set()}
    forward, backward, step = (learn.wh_forward, learn.wh_backward,
                               learn.adam_step)

    def record_forward(m, x, *plan):
        out, inter = forward(m, x, *plan)
        seen["out"].add(id(out.base))
        seen["poly in"].add(id(inter[1].base))
        # for vector loads that split no cache line
        assert all(a.ctypes.data % 64 == 0 for a in (
            out, inter[1], inter[0].samples, inter[2].samples))
        assert out.dtype == inter[1].dtype == kernels.CASCADE_DTYPE
        return out, inter

    def record_backward(m, inter, reference, **kw):
        seen["ref"].add(id(reference))
        assert reference.ctypes.data % 64 == 0
        assert reference.dtype == kernels.CASCADE_DTYPE
        return backward(m, inter, reference, **kw)

    def record_step(state, model, grads):
        seen["flat"].add(id(grads.flat))
        assert grads.flat.dtype == state.theta.dtype == np.float64
        return step(state, model, grads)

    monkeypatch.setattr(learn, "wh_forward", record_forward)
    monkeypatch.setattr(learn, "wh_backward", record_backward)
    monkeypatch.setattr(learn, "adam_step", record_step)
    rng = np.random.default_rng(25)
    ref = sig(rng.normal(size=256) * 0.4)
    received, _ = forward(WhModel.lnl(5, 3, a=0.1), ref)
    art = fit_postestimator(received, ref, WhModel.lnl(5, 3),
                            FitConfig(iterations=30, tol=1e-300))
    assert art.iterations == 30
    assert {k: len(v) for k, v in seen.items()} == {"out": 1, "poly in": 1,
                                                   "ref": 1, "flat": 1}


def test_fit_steps_form_each_signal_in_the_frame_that_reads_it(monkeypatch):
    # each polynomial block's output, the residual and each slope are
    # formed in the frame that the next kernel reads, so an LNL fit copies
    # only the capture into a frame; an FIR block forms its output and its
    # input gradient in a product of its own, which a pass copies into the
    # frame of an adjacent FIR block
    copies = []
    real = kernels.Frame.hold
    monkeypatch.setattr(kernels.Frame, "hold", lambda self, y: copies.append(
        y is not self.samples) or real(self, y))
    rng = np.random.default_rng(26)
    ref = sig(rng.normal(size=128) * 0.4)
    lnl = [FirBlock.identity(5), PolyNlBlock({3: 0.01}), FirBlock.identity(3)]
    for layers, adjacent in ((lnl, 0),
                             ([lnl[0], FirBlock([0.1, 1.0, 0.1])] + lnl[1:],
                              1)):
        copies.clear()
        art = fit_postestimator(ref, ref, WhModel(layers),
                                FitConfig(iterations=20, tol=1e-300))
        assert art.iterations == 20
        # the capture; then a forward and a backward pass per step, each
        # holding every FIR block's frame once; then the float64 forward
        # of the returned model, which copies each FIR block's input into
        # a one-off frame
        passes, firs = 2 * 20, len(layers) - 1
        assert len(copies) == 1 + passes * firs + firs
        assert sum(copies) == 1 + passes * adjacent + firs


def test_fit_steps_taps_that_are_views_of_theta(monkeypatch):
    # theta is the fit's one coefficient store: adam_step updates the FIR
    # taps in place, with no write-back
    bound = []
    real = learn.adam_step

    def step(state, model, grads):
        bound.append([b.taps.base is state.theta for b in model.layers
                      if isinstance(b, FirBlock)])
        return real(state, model, grads)

    monkeypatch.setattr(learn, "adam_step", step)
    rng = np.random.default_rng(23)
    ref = sig(rng.normal(size=64) * 0.4)
    art = fit_postestimator(ref, ref, WhModel.lnl(5, 3),
                            FitConfig(iterations=5))
    assert bound == [[True, True]] * art.iterations


def test_artifact_is_unchanged_by_a_later_fit():
    rng = np.random.default_rng(22)
    ref = sig(rng.normal(size=128) * 0.4)
    received, _ = wh_forward(WhModel.lnl(5, 5, a=0.1), ref)
    cfg = FitConfig(iterations=30)
    first = fit_postestimator(received, ref, WhModel.lnl(5, 5), cfg)
    theta, amps = pack(first.model), dict(first.nl_input_amplitudes)
    # a second fit from the first's model, and one on other data
    fit_postestimator(received, ref, first.model, cfg)
    fit_postestimator(sig(ref.samples[::-1]), ref, WhModel.lnl(5, 5), cfg)
    assert pack(first.model).tobytes() == theta.tobytes()
    assert first.nl_input_amplitudes == amps


FIT_PAGE_FAULTS = """
import resource, sys
import numpy as np
from whdpd import FitConfig, SampledSignal, WhModel, fit_postestimator
x = np.random.default_rng(0).normal(size=131072) * 0.3
args = (SampledSignal(x), SampledSignal(x + 0.1 * x ** 3))
fit_postestimator(*args, WhModel.lnl(15, 15), FitConfig(iterations=20))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fit_postestimator(*args, WhModel.lnl(15, 15), FitConfig(iterations=20))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="malloc thresholds are set on glibc")
def test_repeated_fit_reuses_freed_array_memory(tmp_path):
    # a fresh interpreter, so only whdpd has set up malloc; each 1 MiB array
    # faulted back in costs 256 pages. An empty bytecode cache makes it
    # compile every module from source, so no .pyc left beside the sources
    # changes what it allocates before the fits.
    src = str(Path(learn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in os.environ.get("PYTHONPATH",
                                                      "").split(os.pathsep)
                            if p]))
    done = subprocess.run([sys.executable, "-c", FIT_PAGE_FAULTS], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 256


FIT_THREAD_USE = """
import resource, time
import numpy as np
from whdpd import FitConfig, SampledSignal, WhModel, fit_postestimator
x = np.random.default_rng(0).normal(size=16384) * 0.3
args = (SampledSignal(x), SampledSignal(x + 0.1 * x ** 3))
fit_postestimator(*args, WhModel.lnl(15, 15), FitConfig(iterations=20))
time.sleep(0.5)  # lets a BLAS thread that spins after a call park first
r, t = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
fit_postestimator(*args, WhModel.lnl(15, 15),
                  FitConfig(iterations=1000, tol=1e-300))
wall = time.perf_counter() - t
s = resource.getrusage(resource.RUSAGE_SELF)
print((s.ru_utime - r.ru_utime + s.ru_stime - r.ru_stime) / wall)
"""


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (TypeError, KeyError):
        return ""


LINEAR_FIT_THREAD_USE = """
import resource, time
from whdpd.experiment import ExperimentConfig, Workbench
bench = Workbench(ExperimentConfig(n_symbols=8192))
bench.train(0.9, freeze_nonlinear=True)
time.sleep(0.5)  # lets a BLAS thread that spins after a call park first
r, t = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
# repeated, so that a thread left spinning by one fit runs into the next
for _ in range(20):
    bench.train(0.9, freeze_nonlinear=True)
wall = time.perf_counter() - t
s = resource.getrusage(resource.RUSAGE_SELF)
print((s.ru_utime - r.ru_utime + s.ru_stime - r.ru_stime) / wall)
"""


def _cpu_per_wall_on_two_blas_threads(script):
    """CPU time / wall time of the script's timed part, which it prints, in
    a fresh interpreter allowed two BLAS threads."""
    src = str(Path(learn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in os.environ.get("PYTHONPATH",
                                                      "").split(os.pathsep)
                            if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


@pytest.mark.skipif("openblas" not in _blas_name(),
                    reason="the thresholds kept to are OpenBLAS's")
def test_paper_point_fit_keeps_to_one_thread():
    # with two BLAS threads allowed, a fit step at N = 16384, K = 15 still
    # makes no call that BLAS splits, so the process uses about one core
    # (a split call leaves the second thread spinning: CPU time ~2x wall)
    assert _cpu_per_wall_on_two_blas_threads(FIT_THREAD_USE) < 1.4


@pytest.mark.skipif("openblas" not in _blas_name(),
                    reason="the thresholds kept to are OpenBLAS's")
def test_paper_point_linear_fit_keeps_to_one_thread():
    # the same for linear-only DPD at the paper point: the capture and the
    # least-squares solve of N = 16384, K = 29
    assert _cpu_per_wall_on_two_blas_threads(LINEAR_FIT_THREAD_USE) < 1.4


def test_fit_capture_shorter_than_half_filter():
    # K//2 >= N: the tap gradient must still have K entries
    rng = np.random.default_rng(20)
    ref = sig(rng.normal(size=5))
    received = sig(ref.samples + 0.1 * rng.normal(size=5))
    art = fit_postestimator(received, ref, WhModel.lnl(15, 15),
                            FitConfig(iterations=20))
    assert art.model.layers[0].taps.size == 15
    assert art.final_loss <= loss(received, ref) / 5


@pytest.mark.parametrize("n_ref", [1, 63, 65])
def test_fit_rejects_a_reference_of_another_length(n_ref):
    # one reference sample would broadcast into the fit's cast reference
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError, match="output/reference length mismatch"):
        fit_postestimator(sig(rng.normal(size=64)),
                          sig(rng.normal(size=n_ref)), WhModel.lnl(5, 5),
                          FitConfig(iterations=5))


def test_fit_divergence_raises_with_iteration():
    ref = sig(np.full(32, 1e200))
    model = WhModel.lnl(3, 3, a=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as exc:
            fit_postestimator(ref, ref, model, FitConfig(iterations=10))
    assert exc.value.iteration == 0


def test_fit_final_loss_not_above_initial():
    rng = np.random.default_rng(12)
    ref = sig(rng.normal(size=512))
    received = sig(ref.samples + 0.1 * rng.normal(size=512))
    init = WhModel.lnl(5, 5)
    art = fit_postestimator(received, ref, init, FitConfig(iterations=200))
    out0, _ = wh_forward(init, received)
    initial = loss(out0, ref) / 512
    assert art.final_loss <= initial


# --- indirect learning ----------------------------------------------------

def test_indirect_learn_identity_channel():
    rng = np.random.default_rng(13)
    tx = sig(rng.normal(size=1024) * 0.4)
    art = indirect_learn(tx, lambda s: s, WhModel.lnl(7, 7),
                         FitConfig(iterations=50))
    out, _ = wh_forward(art.model, tx)
    assert snr_db(tx.samples, out.samples) >= 60.0


def test_indirect_learn_pure_fir_channel():
    rng = np.random.default_rng(14)
    tx = sig(rng.normal(size=2048) * 0.4)
    h = np.array([0.06, 0.92, 0.12, -0.04])

    def channel(s):
        return s.with_samples(fir_same(s.samples, h))

    art = indirect_learn(tx, channel, WhModel.lnl(15, 15),
                         FitConfig(iterations=1200))
    a3 = [b.coeffs[3] for b in art.model.layers
          if isinstance(b, PolyNlBlock)][0]
    assert abs(a3) < 1e-3
    # cascaded FIRs approximate the channel inverse in-band, up to the
    # overall gain absorbed by the RMS normalization step
    cascade = np.convolve(
        art.model.layers[0].taps, art.model.layers[2].taps)
    n_fft = 512
    resp = np.fft.rfft(cascade, n_fft) * np.fft.rfft(h, n_fft)
    inband = np.abs(resp[:n_fft // 4])
    assert np.max(np.abs(inband / np.mean(inband) - 1.0)) < 0.02


# --- linear-only DPD: the least-squares solve ------------------------------

def _convolution_matrix(x, k):
    """X[n, j] = x[n + K//2 - j], x zero outside [0, N): fir_same(x, h) is
    X @ h."""
    n, c = len(x), k // 2
    t = np.arange(n)[:, None] + c - np.arange(k)[None, :]
    inside = (t >= 0) & (t < n)
    return np.where(inside, x[np.clip(t, 0, n - 1)], 0.0)


@pytest.mark.parametrize("k", [1, 2, 8, 29])
@pytest.mark.parametrize("n", [1, 7, 64, 4096])
def test_gram_is_the_convolution_matrixs_gram(n, k):
    x = np.random.default_rng(n * 100 + k).normal(size=n)
    big = _convolution_matrix(x, k)
    assert np.allclose(big @ np.arange(1.0, k + 1), fir_same(x, np.arange(
        1.0, k + 1)), rtol=1e-12, atol=1e-12)
    explicit = big.T @ big
    g = learn.gram(x, k)
    assert np.array_equal(g, g.T)
    assert np.max(np.abs(g - explicit)) <= 1e-13 * np.max(np.abs(explicit))


def _linear_capture(n, seed=30):
    """A capture of a mildly nonlinear, dispersive channel, RMS-matched to
    its white reference, as received and reference signals."""
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=n) * 0.4
    y = fir_same(ref, np.array([0.05, 0.95, 0.15, -0.05]))
    y = y - 0.1 * y ** 3 + 0.01 * rng.normal(size=n)
    y *= np.sqrt(np.mean(ref ** 2) / np.mean(y ** 2))
    return sig(y), sig(ref)


def test_fit_linear_residual_is_orthogonal_to_every_column():
    received, ref = _linear_capture(2048)
    art = learn.fit_linear(received, ref, 29)
    (block,) = art.model.layers
    x = received.samples
    r = fir_same(x, block.taps) - ref.samples
    assert block.taps.size == 29
    assert art.nl_input_amplitudes == {}
    assert art.iterations == 1
    assert np.max(np.abs(fir_grad_taps(r, x, 29))) <= 1e-12 * np.max(
        np.abs(fir_grad_taps(ref.samples, x, 29)))
    assert art.final_loss == loss(fir_same(x, block.taps), ref) / 2048
    # the gradient norm at the solution is ~0, at the start it is not
    assert art.history[1][2] < 1e-12 * art.history[0][2]


@pytest.mark.parametrize("k1, k2", [(7, 7), (15, 15), (4, 5)])
def test_fit_linear_loss_is_at_or_below_the_adam_linear_fit(k1, k2):
    received, ref = _linear_capture(1024)
    adam = fit_postestimator(received, ref, WhModel.lnl(k1, k2),
                             FitConfig(iterations=300, lr_nl=0.0))
    solved = learn.fit_linear(received, ref, k1 + k2 - 1)
    assert solved.final_loss <= adam.final_loss


def test_fit_linear_keeps_an_optimal_start():
    # on an identity capture the unit-centre-tap filter is exact, and the
    # solve can only round away from it
    x = sig(np.random.default_rng(31).normal(size=256))
    art = learn.fit_linear(x, x, 15)
    assert art.final_loss == 0.0 == art.history[0][1]
    assert np.array_equal(art.model.layers[0].taps, FirBlock.identity(15).taps)


@pytest.mark.parametrize("n, k, samples", [
    (5, 15, None),           # N < K: at most N independent columns
    (1, 2, None),
    (64, 15, np.zeros(64)),  # no energy at all
])
def test_fit_linear_rejects_a_rank_deficient_capture(n, k, samples):
    x = np.random.default_rng(32).normal(size=n) if samples is None \
        else samples
    ref = sig(np.random.default_rng(33).normal(size=n))
    with pytest.raises(ValueError, match=rf"N = {n}, K = {k}\) has "
                       r"condition number"):
        learn.fit_linear(sig(x), ref, k)


@pytest.mark.parametrize("which", ["received", "reference"])
def test_fit_linear_rejects_a_non_finite_sample(which):
    received, ref = _linear_capture(64)
    bad = received if which == "received" else ref
    bad.samples[10] = np.nan
    with pytest.raises(ValueError, match="finite capture and reference"):
        learn.fit_linear(received, ref, 5)


def test_fit_linear_artifact_survives_json_bit_for_bit():
    received, ref = _linear_capture(512)
    art = learn.fit_linear(received, ref, 13)
    again = artifact_from_dict(json.loads(json.dumps(artifact_to_dict(art))))
    x = sig(np.random.default_rng(34).normal(size=300))
    assert np.array_equal(apply_dpd(art, x).samples,
                          apply_dpd(again, x).samples)
    assert again.final_loss == art.final_loss
    assert again.iterations == 1
    assert again.nl_input_amplitudes == {}


def test_fit_linear_training_log_starts_at_the_initial_loss(tmp_path):
    received, ref = _linear_capture(512)
    art = learn.fit_linear(received, ref, 13)
    save_artifact(art, tmp_path / "a.json", tmp_path / "log.csv")
    with open(tmp_path / "log.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["iteration"] for r in rows] == ["0", "1"]
    assert float(rows[0]["loss"]) == pytest.approx(
        loss(received, ref) / 512, rel=1e-11)
    assert float(rows[1]["loss"]) == pytest.approx(art.final_loss,
                                                   rel=1e-11)
    assert float(rows[1]["loss"]) < float(rows[0]["loss"])


# --- applying the artifact ------------------------------------------------

def _trained_artifact(a=0.0, amp=0.8):
    model = WhModel.lnl(5, 5, a=a)
    from whdpd.learn import DpdArtifact
    return DpdArtifact(model=model, nl_input_amplitudes={1: amp},
                       final_loss=0.0, iterations=0)


def test_apply_dpd_linear_artifact_matches_forward():
    rng = np.random.default_rng(15)
    x = sig(rng.normal(size=128))
    art = _trained_artifact(a=0.0, amp=0.5)
    out = apply_dpd(art, x)
    fwd, _ = wh_forward(art.model, x)
    assert np.allclose(out.samples, fwd.samples, atol=1e-12)
    assert out.rms() / fwd.rms() == pytest.approx(1.0, abs=1e-10)


def _stored_scale(artifact):
    """apply_dpd's scale: each nonlinear block's input taken to the stored
    amplitude."""
    amps = artifact.nl_input_amplitudes
    return lambda i, y: amps[i] / float(np.max(np.abs(y)))


# the scaling identities hold for the cascade in any dtype; they are checked
# in float64, by run_cascade with apply_dpd's scale on a float64 input, and
# apply_dpd is that cascade on the rail cast to float32 (next tests)
def test_apply_dpd_at_stored_amplitude_equals_forward():
    rng = np.random.default_rng(16)
    x = sig(rng.normal(size=128))
    art = _trained_artifact(a=0.07, amp=float(np.max(np.abs(x.samples))))
    out, _ = run_cascade(art.model, x.samples, _stored_scale(art))
    fwd, _ = wh_forward(art.model, x)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - fwd.samples)) < 1e-12


def test_apply_dpd_half_amplitude_equals_rescaled_coefficient():
    rng = np.random.default_rng(17)
    x = sig(rng.normal(size=128))
    peak = float(np.max(np.abs(x.samples)))
    art = _trained_artifact(a=0.07, amp=2.0 * peak)  # x at half stored amp
    out, _ = run_cascade(art.model, x.samples, _stored_scale(art))
    boosted = WhModel.lnl(5, 5, a=rescale_nl_coeff(0.07, 2.0))
    fwd, _ = wh_forward(boosted, x)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - fwd.samples)) < 1e-10


def _lnl_artifact(rng, k, amp):
    model = random_model(rng, (k, k), ({3: -0.12},))
    return DpdArtifact(model=model, nl_input_amplitudes={1: amp},
                       final_loss=0.0, iterations=0)


@pytest.mark.parametrize("k", [5, 15, 401])
def test_apply_dpd_is_the_cascade_on_the_float32_rail_bit_for_bit(k):
    rng = np.random.default_rng(k)
    x = sig(rng.normal(size=3000))
    art = _lnl_artifact(rng, k, 1.1)
    kept = x.samples.copy()
    out = apply_dpd(art, x)
    rail = x.samples.astype(np.float32)
    cascade, inter = run_cascade(art.model, rail, _stored_scale(art))
    assert all(a.dtype == np.float32 for a in [cascade, *inter])
    assert out.samples.dtype == np.float64
    assert np.array_equal(out.samples, cascade)
    # the caller's rail is left as it was
    assert np.array_equal(x.samples, kept) and x.samples.dtype == np.float64


def test_apply_dpd_at_the_stress_point_is_the_float64_cascade_rounded():
    # K1 = K2 = 401, as the stress workload fits. Each FIR output sums K
    # products, whose float32 rounding is at most about K eps32 of its
    # magnitude, so the bound is K1 + K2 float32 epsilons of the output's
    # peak; the error reads about 3.3 of them
    rng = np.random.default_rng(401)
    x = sig(0.4 * rng.normal(size=4096))
    art = _lnl_artifact(rng, 401, 1.1)
    out = apply_dpd(art, x).samples
    exact, _ = run_cascade(art.model, x.samples, _stored_scale(art))
    err = np.max(np.abs(out - exact))
    eps32 = float(np.finfo(np.float32).eps)
    assert 0 < err <= (401 + 401) * eps32 * np.max(np.abs(exact))


@pytest.mark.parametrize("bad", [1e39, -4e38, np.inf, -np.inf, np.nan])
def test_apply_dpd_rejects_a_rail_that_is_not_finite_in_float32(bad):
    art = _trained_artifact(a=0.1, amp=1.0)
    samples = np.linspace(-1.0, 1.0, 16)
    samples[5] = bad
    with warnings.catch_warnings():
        # the cast's overflow is reported by the error, and warns nothing
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite in float32"):
            apply_dpd(art, sig(samples))
    # float32's largest magnitude itself casts exactly and passes the check
    samples[5] = float(np.finfo(np.float32).max)
    assert apply_dpd(_trained_artifact(a=0.0, amp=1.0),
                     sig(samples)).samples.dtype == np.float64


def test_apply_dpd_rejects_bad_inputs():
    art = _trained_artifact(a=0.1, amp=0.0)
    with pytest.raises(ValueError, match="no positive stored amplitude"):
        apply_dpd(art, sig(np.ones(8)))
    art2 = _trained_artifact(a=0.1, amp=1.0)
    with pytest.raises(ValueError, match="all-zero signal"):
        apply_dpd(art2, sig(np.zeros(8)))


def test_apply_dpd_names_block_with_all_zero_input():
    model = WhModel([FirBlock(np.zeros(5)), PolyNlBlock.cubic(0.1),
                     FirBlock.identity(5)])
    art = DpdArtifact(model=model, nl_input_amplitudes={1: 0.8},
                      final_loss=0.0, iterations=0)
    with pytest.raises(ValueError, match="nonlinear block 1"):
        apply_dpd(art, sig(np.ones(8)))


# --- coefficient rescaling ------------------------------------------------

def test_rescale_identity_and_hand_case():
    assert rescale_nl_coeff(0.3, 1.0) == 0.3
    assert rescale_nl_coeff(0.1, 2.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        rescale_nl_coeff(0.1, 0.0)


def test_rescale_matches_scaled_nl_apply():
    rng = np.random.default_rng(18)
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0.1, 3.0)
        x = rng.normal(size=64)
        scaled = nl_apply(PolyNlBlock.cubic(a), sig(s * x)).samples / s
        rescaled = nl_apply(PolyNlBlock.cubic(rescale_nl_coeff(a, s)),
                            sig(x)).samples
        assert np.max(np.abs(scaled - rescaled)) < 1e-10


def test_rescale_artifact_scales_coeffs_and_amplitudes():
    art = _trained_artifact(a=0.1, amp=0.5)
    out = rescale_artifact(art, 2.0)
    assert out.model.layers[1].coeffs[3] == pytest.approx(0.4)
    assert out.nl_input_amplitudes[1] == pytest.approx(1.0)


# --- non-commutativity witness -------------------------------------------

def test_wrong_block_order_fits_worse():
    rng = np.random.default_rng(19)
    x = sig(rng.normal(size=2048) * 0.5)
    # channel: nonlinearity first, then a non-flat filter (NL then L)
    h = np.array([0.25, 1.0, -0.3])
    y = nl_apply(PolyNlBlock.cubic(0.3), x)
    y = y.with_samples(fir_same(y.samples, h))
    cfg = FitConfig(iterations=800)
    hammerstein = WhModel([PolyNlBlock.cubic(0.0), FirBlock.identity(9)])
    wiener = WhModel([FirBlock.identity(9), PolyNlBlock.cubic(0.0)])
    fit_nl = fit_postestimator(x, y, hammerstein, cfg)
    fit_ln = fit_postestimator(x, y, wiener, cfg)
    assert fit_ln.final_loss > fit_nl.final_loss


# --- artifact serialization ----------------------------------------------

def test_artifact_dict_roundtrip():
    art = _trained_artifact(a=0.07, amp=0.8)
    art.final_loss = 1.5e-6
    art.iterations = 42
    back = artifact_from_dict(artifact_to_dict(art))
    assert back.nl_input_amplitudes == art.nl_input_amplitudes
    assert back.final_loss == art.final_loss
    assert back.iterations == 42
    assert back.model.layers[1].coeffs == art.model.layers[1].coeffs
