import json

import numpy as np
import pytest

from whdpd.dsp import SampledSignal
from whdpd.model import (FirBlock, PolyNlBlock, WhModel, complexity,
                         fir_apply, model_from_dict, model_to_dict, nl_apply,
                         wh_forward)


def naive_fir_same(x, h):
    """Independent O(N*K) reference for the documented boundary policy."""
    n, k = len(x), len(h)
    c = k // 2
    y = np.zeros(n)
    for i in range(n):
        for j in range(k):
            idx = i + c - j
            if 0 <= idx < n:
                y[i] += h[j] * x[idx]
    return y


def sig(samples):
    return SampledSignal(np.asarray(samples, dtype=float))


# --- FIR ------------------------------------------------------------------

def test_fir_unit_impulse_is_identity():
    x = sig(np.random.default_rng(0).normal(size=100))
    out = fir_apply(FirBlock.identity(401), x)
    assert np.array_equal(out.samples, x.samples)


def test_fir_hand_case():
    out = fir_apply(FirBlock([0.5, 0.5]), sig([1, 1, 1]))
    # center tap at index 1: y[n] = 0.5*x[n+1] + 0.5*x[n]
    assert np.allclose(out.samples, [1.0, 1.0, 0.5])
    assert np.allclose(out.samples, naive_fir_same([1, 1, 1], [0.5, 0.5]))


def test_fir_matches_naive_reference():
    rng = np.random.default_rng(1)
    for k in (1, 2, 3, 5, 8, 9):
        x = rng.normal(size=57)
        h = rng.normal(size=k)
        out = fir_apply(FirBlock(h), sig(x))
        assert np.max(np.abs(out.samples - naive_fir_same(x, h))) < 1e-12


def test_fir_linearity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40)
    h = rng.normal(size=7)
    a = 3.7
    out1 = fir_apply(FirBlock(h), sig(a * x))
    out2 = fir_apply(FirBlock(h), sig(x))
    assert np.allclose(out1.samples, a * out2.samples, atol=1e-12)


def test_fir_rejects_empty_taps():
    with pytest.raises(ValueError):
        FirBlock(np.array([]))
    with pytest.raises(ValueError):
        FirBlock(np.array([np.nan]))


# --- polynomial block -----------------------------------------------------

def test_nl_zero_coefficient_is_identity():
    x = sig(np.random.default_rng(3).normal(size=32))
    out = nl_apply(PolyNlBlock.cubic(0.0), x)
    assert np.allclose(out.samples, x.samples)


def test_nl_cubic_arithmetic():
    out = nl_apply(PolyNlBlock.cubic(0.1), sig([2.0]))
    assert out.samples[0] == pytest.approx(2.8)


def test_nl_odd_symmetry():
    rng = np.random.default_rng(4)
    x = rng.normal(size=64)
    block = PolyNlBlock({3: 0.2, 5: -0.01})
    plus = nl_apply(block, sig(x)).samples
    minus = nl_apply(block, sig(-x)).samples
    assert np.allclose(minus, -plus, atol=1e-12)


def test_nl_memoryless_commutes_with_permutation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=64)
    perm = rng.permutation(64)
    block = PolyNlBlock({2: 0.05, 3: 0.2})
    direct = nl_apply(block, sig(x[perm])).samples
    permuted = nl_apply(block, sig(x)).samples[perm]
    assert np.array_equal(direct, permuted)


def test_poly_rejects_low_orders():
    with pytest.raises(ValueError):
        PolyNlBlock({1: 0.5})


@pytest.mark.parametrize("build, message", [
    (lambda: PolyNlBlock({3: np.nan}), "coefficients must be finite"),
    (lambda: WhModel([]), "at least one block"),
    (lambda: model_from_dict({"layers": [{"kind": "iir"}]}),
     "unknown block kind 'iir'"),
], ids=["nan-coefficient", "no-blocks", "unknown-kind"])
def test_model_rejects_bad_blocks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- forward pass ---------------------------------------------------------

def test_identity_cascade():
    x = sig(np.random.default_rng(6).normal(size=128))
    model = WhModel.lnl(401, 401)
    out, inter = wh_forward(model, x)
    assert np.array_equal(out.samples, x.samples)
    assert len(inter) == 4


def test_forward_equals_manual_composition():
    rng = np.random.default_rng(7)
    h1, h2 = FirBlock(rng.normal(size=5)), FirBlock(rng.normal(size=3))
    nl = PolyNlBlock.cubic(0.1)
    x = sig(rng.normal(size=64))
    model = WhModel([h1, nl, h2])
    out, _ = wh_forward(model, x)
    manual = fir_apply(h2, nl_apply(nl, fir_apply(h1, x)))
    assert np.array_equal(out.samples, manual.samples)


def test_forward_matches_straight_line_reimplementation():
    rng = np.random.default_rng(8)
    h1 = rng.normal(size=5)
    h2 = rng.normal(size=7)
    a = {2: 0.03, 3: -0.1}
    x = rng.normal(size=64)
    model = WhModel([FirBlock(h1), PolyNlBlock(dict(a)), FirBlock(h2)])
    out, _ = wh_forward(model, sig(x))
    y = naive_fir_same(x, h1)
    y = y + a[2] * y ** 2 + a[3] * y ** 3
    y = naive_fir_same(y, h2)
    assert np.max(np.abs(out.samples - y)) < 1e-12


def test_empty_polynomial_block_is_identity():
    x = sig(np.random.default_rng(10).normal(size=32))
    out, _ = wh_forward(WhModel([FirBlock.identity(3), PolyNlBlock({})]), x)
    assert np.array_equal(out.samples, x.samples)


def test_forward_rejects_unknown_block_type():
    model = WhModel([FirBlock.identity(3), "cubic"])
    with pytest.raises(TypeError, match="unknown block type str"):
        wh_forward(model, sig(np.ones(4)))


def test_copy_is_independent_of_original():
    model = WhModel([FirBlock([0.1, 1.0, -0.2]),
                     PolyNlBlock({3: 0.05, 2: -0.02}), FirBlock([0.3])])
    dup = model.copy()
    assert model_to_dict(dup) == model_to_dict(model)
    assert list(dup.layers[1].coeffs) == [3, 2]
    dup.layers[0].taps[1] = 7.0
    dup.layers[1].coeffs[3] = 9.0
    dup.layers[2].taps[:] = 0.0
    assert np.array_equal(model.layers[0].taps, [0.1, 1.0, -0.2])
    assert model.layers[1].coeffs == {3: 0.05, 2: -0.02}
    assert np.array_equal(model.layers[2].taps, [0.3])


# --- complexity -----------------------------------------------------------

def test_complexity_paper_configuration():
    rep = complexity(WhModel.lnl(401, 401, a=0.1))
    assert rep.multiplications_per_sample == 805
    assert rep.additions_per_sample == 801


def test_complexity_single_tap_fir():
    rep = complexity(WhModel([FirBlock([1.0])]))
    assert rep.multiplications_per_sample == 1
    assert rep.additions_per_sample == 0


def test_complexity_full_cubic_polynomial():
    rep = complexity(WhModel([PolyNlBlock({2: 0.1, 3: 0.2})]))
    assert rep.multiplications_per_sample == 5
    assert rep.additions_per_sample == 2


def test_complexity_additive_over_blocks():
    m1 = WhModel([FirBlock(np.ones(9))])
    m2 = WhModel([PolyNlBlock({3: 0.1})])
    both = WhModel(m1.layers + m2.layers)
    r1, r2, rb = complexity(m1), complexity(m2), complexity(both)
    assert rb.multiplications_per_sample == (r1.multiplications_per_sample
                                             + r2.multiplications_per_sample)
    assert rb.additions_per_sample == (r1.additions_per_sample
                                       + r2.additions_per_sample)


# --- serialization --------------------------------------------------------

def test_model_json_roundtrip():
    rng = np.random.default_rng(9)
    model = WhModel([FirBlock(rng.normal(size=5)), PolyNlBlock({3: -0.07}),
                     FirBlock(rng.normal(size=3))])
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    for b1, b2 in zip(model.layers, back.layers):
        if isinstance(b1, FirBlock):
            assert np.array_equal(b1.taps, b2.taps)
        else:
            assert b1.coeffs == b2.coeffs


def test_model_dict_schema():
    doc = model_to_dict(WhModel.lnl(3, 3, a=0.5))
    assert doc["schema_version"]
    assert doc["layers"][0]["kind"] == "fir"
    assert doc["layers"][1] == {"kind": "poly", "coeffs": {"3": 0.5}}
    model_from_dict(doc)  # parses back
