"""Hot numeric kernels (numpy).

All FIR kernels implement same-length convolution with zero padding and the
center tap at index K//2:

    y[n] = sum_k h[k] * x[n + K//2 - k],  x zero outside [0, N)

The adjoint kernels are the exact transposes of that linear map, so gradient
checks against finite differences hold to machine precision.
"""

import numpy as np


def fir_same(x, h):
    """Same-length zero-padded convolution, center tap at K//2."""
    c = len(h) // 2
    return np.convolve(x, h)[c:c + len(x)]


def fir_grad_input(g, h):
    """Adjoint of fir_same w.r.t. the input: correlate g with the filter."""
    k = len(h)
    c = k // 2
    return np.convolve(g, h[::-1])[k - 1 - c:k - 1 - c + len(g)]


def fir_grad_taps(g, x, k):
    """Adjoint of fir_same w.r.t. the taps: gh[j] = sum_i g[i] x[i+c-j].

    K dot products of length N against the zero-padded input, O(NK); an FFT
    over the two length-N signals costs more at every K the models use.
    """
    n = len(x)
    c = k // 2
    xp = np.zeros(n + k - 1)
    xp[k - 1 - c:k - 1 - c + n] = x
    return np.correlate(xp, g, "valid")[::-1]


def power(y, m):
    """y**m for an integer m >= 1 by repeated multiplication; a float array
    raised to an integer exponent calls pow() per element, ~50x slower."""
    p = y
    for _ in range(m - 1):
        p = p * y
    return p


def poly_apply(y, orders, coeffs):
    """x + sum_m a_m * y**m for the present orders."""
    out = y.copy()
    for m, a in zip(orders, coeffs):
        out += a * power(y, m)
    return out


def poly_slope(y, orders, coeffs):
    """Elementwise derivative 1 + sum_m m * a_m * y**(m-1)."""
    s = np.ones_like(y)
    for m, a in zip(orders, coeffs):
        s += m * a * power(y, m - 1)
    return s


def backend():
    """Name of the kernel implementation; there is one, numpy."""
    return "numpy"
