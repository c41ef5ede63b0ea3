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
K-long dot product per output sample. The tap adjoint multiplies the same
rows of the input by the rows of the output gradient and sums the K
diagonals of the small product. With K in the hundreds, the last bits of a
GEMM result depend on how many threads BLAS splits it over.

Threads: OpenBLAS splits a dot product longer than 10 000 samples, or a
GEMM above 2^18 multiply-adds, over its threads, and its idle threads spin
between calls. A fit step at the paper point makes dozens of products of
a few microseconds each; split, they would keep a second core spinning and
make the fit several times slower whenever anything else runs on the
machine. At N = 16384 and K = 15 every product here stays on one thread:
each GEMM is at most 2^18 multiply-adds, and inner() sums in numpy.
"""

import ctypes
import os

import numpy as np

# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _recycle_freed_arrays():
    """Have glibc's malloc keep freed array memory for reuse.

    By default glibc serves a request above a sliding threshold (128 KiB at
    start, raised to the size of each large block freed) with a fresh mmap,
    and on free hands heap space above twice that threshold back to the OS.
    A float64 array of 16384 samples is 128 KiB, so whether the arrays of a
    fit iteration or an evaluation are recycled or faulted back in page by
    page depends on what the process allocated before. Fixed
    thresholds, 32 MiB (glibc's largest) and twice that for trimming, let
    them all come back from the heap. Other C libraries are left alone.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_recycle_freed_arrays()


def _rows(x, k, c):
    """x zero-padded by K-1-c samples in front and cut into rows of
    b = max(K-1, 16) samples: b, the rows that cover x, and the K-1 samples
    after each row, as views of one array that BLAS takes without a copy."""
    n = len(x)
    b = max(k - 1, 16)
    nb = -(-n // b)
    xp = np.zeros((nb + 1) * b)
    xp[k - 1 - c:k - 1 - c + n] = x
    return b, xp.reshape(nb + 1, b)[:-1], xp[b:].reshape(nb, b)[:, :k - 1]


def _fir(x, h, c):
    """y[n] = sum_k h[k] * x[n + c - k] for n in [0, N), x zero outside
    [0, N), for any N >= 1, K >= 1 and 0 <= c <= K-1."""
    n, k = len(x), len(h)
    b, rows, tails = _rows(x, k, c)
    # t[j, i] = hp[j + b-1 - i] = h[K-1-(j-i)] on the band 0 <= j-i <= K-1,
    # zero elsewhere: a strided view of the padded reversed taps
    hp = np.zeros(2 * b + k - 2)
    hp[b - 1:b - 1 + k] = h[::-1]
    t = np.ndarray((b + k - 1, b), np.float64, hp, hp.itemsize * (b - 1),
                   (hp.itemsize, -hp.itemsize))
    # row r of output: [row r, its tail] @ t, split at b
    y = rows @ t[:b]
    y += tails @ t[b:]
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

    With g and the padded input cut into the same rows of b samples as in
    _fir, a = sum_r g_r^T [x_r, first K-1 of x_(r+1)] is one (b, b+K-1)
    product, and gh[K-1-d] is the sum of its d-th upper diagonal.
    """
    b, rows, tails = _rows(x, k, k // 2)
    gt = _rows(g, k, k - 1)[1].T
    a = np.empty((b, b + k - 1))
    np.matmul(gt, rows, out=a[:, :b])
    np.matmul(gt, tails, out=a[:, b:])
    # a[i, i+d] sits at i*(b+K) + d: row i of this view holds a[i, i:i+K]
    diagonals = np.ndarray((b, k), np.float64, a, 0,
                           (a.itemsize * (b + k), a.itemsize))
    return np.add.reduce(diagonals, axis=0)[::-1]


def inner(a, b):
    """sum(conj(a) * b) over two equal-length arrays, summed by numpy on
    the calling thread (np.dot and np.vdot hand it to BLAS)."""
    return np.einsum("i,i", np.ravel(a).conj(), np.ravel(b))


def powers(y, top):
    """[y, y**2, ..., y**top] by repeated multiplication; a float array
    raised to an integer exponent calls pow() per element, ~50x slower."""
    p = [y]
    for _ in range(top - 1):
        p.append(p[-1] * y)
    return p


def poly_apply(y, orders, coeffs):
    """x + sum_m a_m * y**m for the present (non-empty) orders."""
    p = powers(y, max(orders))
    out = y
    for m, a in zip(orders, coeffs):
        # sums formed in place in the fresh term: one N-length array each
        term = a * p[m - 1]
        term += out
        out = term
    return out


def poly_slope(p, orders, coeffs):
    """Elementwise derivative 1 + sum_m m * a_m * y**(m-1), given the powers
    p = powers(y, top) with top >= max order - 1."""
    s = 1.0
    for m, a in zip(orders, coeffs):
        term = m * a * p[m - 2]
        term += s
        s = term
    return s


def backend():
    """Name of the kernel implementation; there is one, numpy."""
    return "numpy"
