"""Hot numeric kernels (numpy).

All FIR kernels implement same-length convolution with zero padding and the
center tap at index K//2:

    y[n] = sum_k h[k] * x[n + K//2 - k],  x zero outside [0, N)

The adjoint kernels are the exact transposes of that linear map, so gradient
checks against finite differences hold to machine precision.

The forward map and its input adjoint run as blocked-Toeplitz matrix
products (convolution lowered to GEMM): the zero-padded input is cut into
rows of b samples, and each row of output is that row and the K-1 samples
after it times one banded (b+K-1) x b matrix of the taps. The band is cut
into m blocks of b rows, the last one shorter, so each row of output is
the sum over j of the input row j rows on, cut to block j's height, times
block j: m GEMMs whose left operands are views of the input. Each output
sample costs b+K-1 multiply-adds, of which K are taps, so b is kept near
K-1 until it reaches B, and past that the band is cut into more blocks:
for K-1 <= B there are two blocks of b = max(K-1, 16) rows, and at K = 401
three of 200 (600 multiply-adds per sample, not the 800 of b = 400). BLAS
then does the O(NK) work in large multiply-adds; np.convolve issues one
K-long dot product per output sample. The tap adjoint multiplies the same
rows of the input by the rows of the output gradient and sums the K
diagonals of the small product. With K in the hundreds, the last bits of a
GEMM result depend on how many threads BLAS splits it over, and on how the
band is cut into blocks.

Frames: a signal's rows are views of a Frame, a zero-filled buffer with
K-1 zeros in front of the samples, so for any centre offset the rows are
cut without a copy. A kernel given a plain array frames it on entry, in a
frame of that same layout used for the one call, and returns new arrays.

Dtype: a kernel works in its signal's dtype, which for the FIR kernels is
the frame's. A one-off frame of a float32 array is float32, and of any
other array float64. Taps and polynomial coefficients are cast to the
signal's dtype, since under numpy's promotion rules a float64 scalar
times a float32 array gives float64. The WH cascade runs its signal in
CASCADE_DTYPE (float32), which halves the bytes its GEMMs move: a fit
frames its steps in it, and learn.apply_dpd casts its rail to it once.
A fit's coefficients, gradient vector and optimizer state, its final
forward, and everything outside the cascade (the channel, alignment and
the metrics) stay float64.
A fit builds one frame per FIR block's input and one per its output
gradient, once (model.Plan): the capture is framed once, and a frame
keeps its cut rows and its band matrix's buffer and views from step to
step. A fit's frame that a kernel forms a result on also owns an out,
the product that the kernel forms its forward output (or input gradient)
in, and shares a Work of the buffers that the other GEMM products are
written into with the other frames of its shape.

Threads: OpenBLAS may split a dot product longer than 10 000 samples, or a
GEMM above 2^18 multiply-adds, over its threads, and its idle threads spin
between calls. Whether a larger GEMM splits is its own choice: on a 2-core
Xeon with OpenBLAS 0.3.31 some 400 x 400 GEMMs (6.4e7 multiply-adds) stayed
on one thread. A fit step at the paper point makes dozens of products of
a few microseconds each; split, they would keep a second core spinning and
make the fit several times slower whenever anything else runs on the
machine. At N = 16384 and K = 15 every product here stays below those
sizes, in float64 and in float32 alike: each GEMM is at most 2^18
multiply-adds, and inner() sums in numpy.
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

# the most rows of a band block, and so samples of a row, once K-1
# exceeds it (see Frame); of 100 to 800, 200 was the fastest at K = 401
# and K = 801 with N = 131072
B = 200

# the dtype that the WH cascade runs its signal in: a fit's frames,
# products and buffers (see model.Plan) and apply_dpd's rail; coefficients,
# a fit's gradient vector and optimizer state stay float64
CASCADE_DTYPE = np.float32


def aligned(n, lead=0, dtype=np.float64):
    """An empty array of n values of dtype whose value at index lead starts
    on a 64-byte boundary, the width of an AVX-512 vector. numpy's vector
    loops then split no cache line from there on: at N = 4096 an
    elementwise product on aligned arrays takes about half the time."""
    size = np.dtype(dtype).itemsize
    line = 64 // size
    raw = np.empty(n + line - 1, dtype)
    start = (-lead - raw.ctypes.data // size) % line
    return raw[start:start + n]


class Frame:
    """N samples inside a zero-filled buffer, laid out for K-tap filters.

    The band matrix of a K-tap filter, (b+K-1) x b, is cut into m = d+1
    blocks of b rows, the last one shorter: d = ceil((K-1)/B), at least 1,
    blocks hold its last K-1 rows, b = ceil((K-1)/d), and b is at least
    16, so for K-1 <= B there are two blocks of b = max(K-1, 16) rows.
    The buffer holds K-1 zeros, the samples, and zeros up to whole rows
    of b samples and d rows more; the samples start on a 64-byte boundary
    (see aligned), in the frame's dtype, which every kernel run on the
    frame works in. For a centre offset c in [0, K-1] the kernels read the
    samples with K-1-c zeros in front as m row blocks, the j-th shifted
    by j rows and cut to the height of the band's block j, each a view of
    the buffer (rows). Only samples is ever written, so the margins stay
    zero. The frame keeps the rows it has cut, and the band matrix of the
    last filter applied to it (band). out and work are None unless a
    fit's plan sets them: then out is a product of the frame's own (see
    product), and _fir writes its first product into it and adds each
    other, formed in work (a Work), to its first N samples, which it
    returns.
    """

    def __init__(self, n, k, dtype=np.float64):
        d = max(-(-(k - 1) // B), 1)
        self.k, self.m = k, d + 1
        self.b = max(-(-(k - 1) // d), 16)
        self.nb = -(-n // self.b)
        self.buf = aligned(k - 1 + (self.nb + d) * self.b, k - 1, dtype)
        self.buf.fill(0.0)
        self.samples = self.buf[k - 1:k - 1 + n]
        self._cuts = {}
        self._band = None
        self.out = self.work = None

    def __len__(self):
        return len(self.samples)

    def product(self):
        """An empty aligned (nb, b) array for a product over the rows, and
        its first N samples."""
        a = aligned(self.nb * self.b, dtype=self.buf.dtype).reshape(
            self.nb, self.b)
        return a, a.reshape(-1)[:len(self)]

    def hold(self, y):
        """This frame, with y copied into its samples unless y is them."""
        if y is not self.samples:
            self.samples[:] = y
        return self

    def rows(self, c):
        """The m row blocks of the samples with K-1-c zeros in front: block
        j holds, for each row r, the first b+K-1-j*b samples (all b but in
        the last block) of row r+j, as a view of the buffer that BLAS takes
        without a copy."""
        cut = self._cuts.get(c)
        if cut is None:
            cut = self._cuts[c] = self._cut(c)
        return cut

    def _cut(self, c):
        b, nb, k = self.b, self.nb, self.k
        seg = self.buf[c:c + (nb + self.m - 1) * b]
        return [seg[j * b:(j + nb) * b].reshape(nb, b)[:, :b + k - 1 - j * b]
                for j in range(self.m)]

    def band(self, h):
        """t[j, i] = h[K-1-(j-i)] on the band 0 <= j-i <= K-1, zero
        elsewhere: a (b+K-1) x b strided view of the padded reversed taps,
        returned as its m blocks of b rows; the frame keeps the buffer and
        the views, and refills the buffer with h, cast to its dtype."""
        if self._band is None:
            self._band = self._views()
        self._taps[:] = h
        return self._band

    def _views(self):
        b, k = self.b, self.k
        hp = np.zeros(2 * b + k - 2, self.buf.dtype)
        t = np.ndarray((b + k - 1, b), hp.dtype, hp, hp.itemsize * (b - 1),
                       (hp.itemsize, -hp.itemsize))
        # the taps sit reversed at hp[b-1:b-1+K]
        self._taps = hp[b - 1:b - 1 + k][::-1]
        return [t[j * b:(j + 1) * b] for j in range(self.m)]


class Work:
    """The buffers that the FIR kernels' GEMM products on frames of one
    shape are written into, shared by a fit's frames of that shape: _fir's
    products after the first (see Frame.product) and fir_grad_taps'
    product (see _taps_product)."""

    def __init__(self, frame):
        self.second = frame.product()
        self.taps = _taps_product(frame)


def _frame(x, k):
    """x as a frame for K taps: x itself if it is one, else a one-off frame
    of the array, float32 for a float32 array and float64 for any other."""
    if isinstance(x, Frame):
        if x.k != k:
            raise ValueError(f"frame laid out for {x.k} taps, not {k}")
        return x
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    return Frame(len(x), k, dtype).hold(x)


def _fir(x, h, c):
    """y[n] = sum_k h[k] * x[n + c - k] for n in [0, N), x zero outside
    [0, N), for any N >= 1, K >= 1 and 0 <= c <= K-1; formed in the
    frame's out if it has one."""
    f = _frame(x, len(h))
    rows, band = f.rows(c), f.band(h)
    # row r of output: sum over j of block j of row r+j @ block j of t
    if f.out is None:
        y = rows[0] @ band[0]
        for j in range(1, f.m):
            y += rows[j] @ band[j]
        return y.ravel()[:len(f)]
    a, a_n = f.out
    second, second_n = f.work.second
    np.matmul(rows[0], band[0], out=a)
    for j in range(1, f.m):
        np.matmul(rows[j], band[j], out=second)
        np.add(a_n, second_n, out=a_n)
    return a_n


def fir_same(x, h):
    """Same-length zero-padded convolution, center tap at K//2."""
    return _fir(x, h, len(h) // 2)


def fir_grad_input(g, h):
    """Adjoint of fir_same w.r.t. the input: correlate g with the filter."""
    k = len(h)
    return _fir(g, h[::-1], k - 1 - k // 2)


def fir_grad_taps(g, x, k):
    """Adjoint of fir_same w.r.t. the taps: gh[j] = sum_i g[i] x[i+c-j].

    With g and x cut into the same rows of b samples as in _fir, a =
    sum_r g_r^T [x_r, x_(r+1), ...], each x row block cut as in
    Frame.rows, is one (b, b+K-1) product, formed as m GEMMs, one per
    block of its columns; gh[K-1-d] is the sum of its d-th upper diagonal.
    """
    fx = _frame(x, k)
    gt = _frame(g, k).rows(k - 1)[0].T
    cols, diagonals = _taps_product(fx) if fx.work is None else fx.work.taps
    for rows, a in zip(fx.rows(k // 2), cols):
        np.matmul(gt, rows, out=a)
    return np.add.reduce(diagonals, axis=0)[::-1]


def _taps_product(frame):
    """An empty (b, b+K-1) product a for a frame's b and K, as its m blocks
    of b columns (the last one shorter) and the view of its K upper
    diagonals: a[i, i+d] sits at i*(b+K) + d, so row i of the view holds
    a[i, i:i+K]."""
    b, k = frame.b, frame.k
    a = np.empty((b, b + k - 1), frame.buf.dtype)
    return ([a[:, j * b:(j + 1) * b] for j in range(frame.m)],
            np.ndarray((b, k), a.dtype, a, 0,
                       (a.itemsize * (b + k), a.itemsize)))


def inner(a, b):
    """sum(conj(a) * b) over two equal-length 1-D arrays, summed by numpy on
    the calling thread (np.dot and np.vdot hand it to BLAS)."""
    return np.einsum("i,i", a.conj(), b)


def powers(y, top, out=None):
    """[y, y**2, ..., y**top] by repeated multiplication, y**m formed in
    out[m-2] if out is given; a float array raised to an integer exponent
    calls pow() per element, ~50x slower."""
    p = [y]
    for o in [None] * (top - 1) if out is None else out:
        p.append(np.multiply(p[-1], y, out=o))
    return p


def poly_apply(y, orders, coeffs, out=None, p_out=None):
    """(y + sum_m a_m * y**m over the present orders, ascending and
    non-empty, and the powers p = powers(y, max order, p_out) it was formed
    from), with each a_m cast to y's dtype; the last sum is formed in out,
    if given."""
    p = powers(y, orders[-1], p_out)
    res = y
    last = len(orders) - 1
    # a float64 scalar would promote a float32 product to float64
    cast = y.dtype.type
    for j, (m, a) in enumerate(zip(orders, coeffs)):
        # sums formed in place in the fresh term: one N-length array each
        term = np.multiply(cast(a), p[m - 1], out=out if j == last else None)
        term += res
        res = term
    return res, p


def poly_slope(p, orders, coeffs, out=None):
    """Elementwise derivative 1 + sum_m m * a_m * y**(m-1), given the powers
    p = powers(y, top) with top >= max order - 1, with each m * a_m cast to
    y's dtype; the last sum is formed in out, if given."""
    s = 1.0
    last = len(orders) - 1
    cast = p[0].dtype.type
    for j, (m, a) in enumerate(zip(orders, coeffs)):
        term = np.multiply(cast(m * a), p[m - 2],
                           out=out if j == last else None)
        term += s
        s = term
    return s


def backend():
    """Name of the kernel implementation; there is one, numpy."""
    return "numpy"
