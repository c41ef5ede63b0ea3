"""Hot numeric kernels (numpy).

All FIR kernels implement same-length convolution with zero padding and the
center tap at index K//2:

    y[n] = sum_k h[k] * x[n + K//2 - k],  x zero outside [0, N)

The adjoint kernels are the exact transposes of that linear map, so gradient
checks against finite differences hold to machine precision.

The forward map and its input adjoint run as blocked-Toeplitz matrix
products (convolution lowered to GEMM): the zero-padded input is cut into
rows of b samples, and each row of output is that row, plus the first K-1
samples of the next, times one banded (b+K-1) x b matrix of the taps. BLAS
then does the O(NK) work in large multiply-adds; np.convolve issues one
K-long dot product per output sample. The tap adjoint keeps only K outputs,
so it stays a direct correlation. With K in the hundreds, the last bits of
a GEMM result depend on how many threads BLAS splits it over.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _fir(x, h, c):
    """y[n] = sum_k h[k] * x[n + c - k] for n in [0, N), x zero outside
    [0, N), for any N >= 1, K >= 1 and 0 <= c <= K-1."""
    n, k = len(x), len(h)
    b = max(k - 1, 16)
    nb = -(-n // b)
    xp = np.zeros((nb + 1) * b)
    xp[k - 1 - c:k - 1 - c + n] = x
    # t[j, i] = h[K-1-(j-i)] on the band 0 <= j-i <= K-1, zero elsewhere
    hp = np.zeros(2 * b + k - 2)
    hp[b - 1:b - 1 + k] = h[::-1]
    t = sliding_window_view(hp, b)[:, ::-1]
    # row r of output: xp[r*b : r*b + b+K-1] @ t, split at b so both left
    # operands are strided views of xp that BLAS takes without a copy
    y = xp.reshape(nb + 1, b)[:-1] @ t[:b]
    y += xp[b:].reshape(nb, b)[:, :k - 1] @ t[b:]
    return y.ravel()[:n]


def fir_same(x, h):
    """Same-length zero-padded convolution, center tap at K//2."""
    return _fir(x, h, len(h) // 2)


def fir_grad_input(g, h):
    """Adjoint of fir_same w.r.t. the input: correlate g with the filter."""
    k = len(h)
    return _fir(g, h[::-1], k - 1 - k // 2)


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
