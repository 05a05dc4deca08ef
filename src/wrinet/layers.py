"""Differentiable layer primitives with exact forward and backward passes.

Every layer is a pair of functions, ``*_forward(x, params) -> (y, cache)``
and ``*_backward(dy, cache) -> grads``, operating on (N, C, H, W) numpy arrays.
They read their array arguments without changing them, except for arrays
that their caller owns and hands over: ``conv2d_forward`` adds its output
into the ``add_to`` it is given, ``relu_forward`` clamps its input in
place (a pre-activation gives it the affine's fresh output),
``relu_backward`` writes its result into the forward output ``y`` it is
given, ``conv2d_backward`` with ``relu_into_x`` writes the ReLU gradient
of its input, a ReLU's output, into that input, ``affine_backward``
writes the gradient of its inputs into the ``dz`` it is given, and
train-mode ``batch_norm_backward`` writes ``dx`` into the cached ``xhat``,
so its cache serves one backward. A pre-activation's backward, and the
backward of the conv that read it first, thus allocate nothing of its
output's size: the graph hands them a map made once per backward from its
:class:`PreActivation`, for them alone (in-place activated batch norm,
Rota Bulo et al. 2018).
Batch norm is split in two (Ioffe & Szegedy 2015). ``batch_norm_forward``
normalises a tensor by its batch statistics, which it folds into its
running ones, with no scale or shift; ``affine_forward`` applies one
consumer's per-channel ``gamma`` and ``beta`` to one or more normalised
tensors, joined along channels, so a tensor read by several pre-activations
is normalised once and a concat followed by batch norm copies nothing
(Pleiss et al. 2017). Per-channel batch norm of a concat is the concat of
the per-part batch norms, so the split computes what the fused batch norm
did, with the same float ops in train mode. In infer mode the normalisation
passes its input through and the affine applies the running statistics
folded into its scale and shift.
Convolution lowers to a channel-major patch matrix (im2col) of shape
(C_in*k*k, N*H_out*W_out), built one tile at a time into one buffer per call
(Jia et al. 2014): a tile is whole samples while one sample's patch matrix
fits ``CONV_TILE_BYTES``, else a band of output rows of one sample. Each
tile copies only the zero-padded input rows its windows read into a second
reused buffer, so a conv tiled by bands never holds a whole padded sample:
MEC's saving on the patch matrix (Cho & Brand 2017), made on the copy. A
window of one tap that reads no zero border, as a 1x1 conv's, needs no
such buffer: its tile is the input sampled at the stride, copied straight
into the patch buffer, in the same channel-major layout. The forward runs
one GEMM per sample of each tile; the cache keeps only the input. The
forward may be handed a :class:`PreActivation` in place of its input,
whose affine and ReLU it applies to the pixels it copies (the zero border
stays zero), and an array that it adds each output tile into, so neither
the pre-activated input nor the conv's own output is ever made in full.
Backward builds one patch matrix, of the zero-bordered ``dy`` over the
stride-phase grid, with a window of ceil(k/s) taps a side (k x k at
stride 1, 2 x 2 for a 3x3 kernel at stride 2, one tap for a kernel at most
its stride, which reads no zero border where ``dy`` covers the grid), and
takes both ``dx`` and ``dw`` from each of its tiles; ``x`` is only copied
by phase, never expanded into patches, and the tiles are sized by the
larger of the two per-tile matrices.
:class:`ConvParams` holds the conv's own invariants and refuses to be built
without them: a stride of at least 1, a square kernel, and padding in
[0, k), so that every output window touches the input, which the backward's
zero borders rely on. The kernels check no shapes: they trust the graph,
whose ``forward`` applies every node's shape rule before any node runs. The
gradients are exact, which the test suite verifies against naive 7-loop
kernels and central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import DEFAULT_DTYPE, ShapeError


@dataclass
class ConvParams:
    """Cross-correlation weights (C_out, C_in, k, k) with optional bias. The
    kernel is square, the stride at least 1 and the padding in [0, k); any
    other value is a ShapeError here, so no conv kernel meets one."""

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        kh, kw = self.kernel
        if kh != kw:
            raise ShapeError(f"kernel must be square, got {kh}x{kw}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if not 0 <= self.padding < kh:
            raise ShapeError(f"padding {self.padding} must be nonnegative and less "
                             f"than kernel {kh}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


@dataclass
class BatchNormParams:
    """A normalisation's running statistics: each train-mode batch's mean
    and biased variance, folded in with ``BN_MOMENTUM``."""

    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class AffineParams:
    """One pre-activation's per-channel scale ``gamma`` and shift ``beta``
    over the channels of the normalisations it reads, joined in order;
    ``stats`` are those normalisations' running statistics, which infer
    mode folds into the scale and shift."""

    gamma: np.ndarray
    beta: np.ndarray
    stats: tuple[BatchNormParams, ...]


@dataclass
class FCParams:
    """Dense layer y = W x + b with W shaped (D_out, D_in)."""

    weights: np.ndarray
    bias: np.ndarray


def make_conv(c_in: int, c_out: int, kernel: int, stride: int = 1,
              padding: Optional[int] = None, bias: bool = False,
              dtype=DEFAULT_DTYPE) -> ConvParams:
    if padding is None:
        padding = (kernel - 1) // 2
    w = np.zeros((c_out, c_in, kernel, kernel), dtype=dtype)
    b = np.zeros(c_out, dtype=dtype) if bias else None
    return ConvParams(weights=w, bias=b, stride=stride, padding=padding)


def make_batch_norm(channels: int, dtype=DEFAULT_DTYPE) -> BatchNormParams:
    return BatchNormParams(running_mean=np.zeros(channels, dtype=dtype),
                           running_var=np.ones(channels, dtype=dtype))


def make_affine(stats: tuple[BatchNormParams, ...], dtype=DEFAULT_DTYPE) -> AffineParams:
    """The identity scale and shift over the channels of ``stats``."""
    channels = sum(s.running_mean.size for s in stats)
    return AffineParams(gamma=np.ones(channels, dtype=dtype),
                        beta=np.zeros(channels, dtype=dtype), stats=tuple(stats))


def make_fc(d_in: int, d_out: int, dtype=DEFAULT_DTYPE) -> FCParams:
    return FCParams(weights=np.zeros((d_out, d_in), dtype=dtype),
                    bias=np.zeros(d_out, dtype=dtype))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, zero padding)
# ---------------------------------------------------------------------------

# Upper bound on the bytes of one tile of a conv's patch matrix. Every tile of
# a call reuses one buffer, and one buffer of the padded input rows it reads,
# so no conv writes a batch-wide patch matrix or, when it tiles by rows, a
# whole padded sample to fresh memory; 4 MiB ran infer and detect fastest of
# 2, 4, 8 and 16 MiB (BENCH_pr9.json). Its second use: a chunked infer pass of
# the graph (``NetworkGraph.forward``) runs as many samples at a time as its
# largest per-sample output fits in it, at least one.
CONV_TILE_BYTES = 4 << 20


def _tile_shape(n: int, k: int, h_out: int, w_out: int, itemsize: int) -> tuple[int, int]:
    """(samples, output rows) per tile of a patch matrix with ``k`` rows:
    whole samples while one sample's patch matrix fits ``CONV_TILE_BYTES``,
    else bands of at least one output row of one sample."""
    row_bytes = k * w_out * itemsize
    if row_bytes * h_out <= CONV_TILE_BYTES:
        return min(n, CONV_TILE_BYTES // (row_bytes * h_out)), h_out
    return 1, max(1, CONV_TILE_BYTES // row_bytes)


@dataclass
class PreActivation:
    """``relu(affine_forward(parts, p, mode))``, not computed: the output
    of a graph's ``affine_relu`` node. A conv given one as its input
    applies the affine and the ReLU to each block of pixels as it copies
    it into a tile, so no conv's forward makes the pre-activated map, and
    a backward cache holds it in the map's place. :meth:`array` makes the
    map, as forward does where the output is kept or the pass is checked,
    and for each reader that is not a conv, and as backward does once per
    backward. ``shape`` and ``dtype`` are those of the map it stands for."""

    parts: list[np.ndarray]
    p: AffineParams
    mode: str
    scale: np.ndarray = field(init=False, repr=False)
    shift: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scale, self.shift = _scale_shift(self.p, self.mode)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n, _, h, w = self.parts[0].shape
        return n, self.scale.size, h, w

    @property
    def dtype(self) -> np.dtype:
        return self.parts[0].dtype

    def array(self) -> np.ndarray:
        """The map, in a fresh array: ``relu_forward(affine_forward(...))``."""
        return relu_forward(affine_forward(self.parts, self.p, self.mode))[0]


def _take(x: np.ndarray | PreActivation, out: np.ndarray, n: slice, rows: slice, cols: slice) -> None:
    """Copy ``x[n, :, rows, cols]`` into ``out``, an (m, C, r, w) array;
    of a :class:`PreActivation`, its parts' pixels, then pre-activated in
    place by the float ops of ``affine_forward`` and ``relu_forward``, so
    each pixel equals theirs bit for bit. ``out`` is a band of the padded
    buffer, a contiguous block of the patch buffer, or a one-tap tile: the
    channel-major (C, m, r, w) block of the patch buffer, viewed as
    (m, C, r, w). The in-place passes run faster when ``out`` spans one
    contiguous block, as the last two do: 1.6x, against a band's padded
    rows, for a 64-channel band of 4 rows by 416 on a 2-core x86_64 host."""
    if isinstance(x, PreActivation):
        for part, sl in zip(x.parts, _channel_slices(x.parts)):
            out[:, sl] = part[n, :, rows, cols]
        out *= x.scale[:, None, None]
        out += x.shift[:, None, None]
        np.fmax(out, 0, out=out)
    else:
        out[...] = x[n, :, rows, cols]


def _patch_tiles(x: np.ndarray | PreActivation, k: int, stride: int, lead: int,
                 h_out: int, w_out: int, samples: int, rows: int):
    """Yield ``(n0, m, r0, r, cols)`` for each tile of the channel-major patch
    matrix: samples n0..n0+m and output rows r0..r0+r, with ``cols`` of shape
    (C, k, k, m, r, W_out), rows in the (C_in, k, k) order of the weights.
    The input is zero-padded by ``lead`` rows and columns before and by
    whatever the output size leaves after, so input rows and columns no
    window reads are left out. A one-tap window that reads no zero border
    (``k == 1``, ``lead == 0`` and the last window inside the input both
    ways) makes each tile ``x`` sampled at the stride, copied (see
    ``_take``) straight into the patch buffer. Any other tile copies the
    padded rows its windows read, stride*r0 .. stride*(r0+r-1)+k, into one
    zero buffer of shape (C, samples, stride*(rows-1)+k, W_pad), and zeroes
    the band rows outside the input; the rows the previous band of the same
    samples read as well are moved up within the buffer, not copied again,
    and the border columns are never written. A :class:`PreActivation`
    ``x`` is pre-activated (see ``_take``) as one contiguous block in the
    patch buffer, then copied into the band. A whole-sample tile's band is
    the whole padded sample. k*k strided block copies then fill the tile;
    both buffers are reused, so ``cols`` is valid until the next tile."""
    n, c, h, width = x.shape
    wp = stride * (w_out - 1) + k
    w = min(width, wp - lead)
    direct = k == 1 and lead == 0 and stride * (h_out - 1) < h and stride * (w_out - 1) < width
    band_rows = 0 if direct else stride * (rows - 1) + k
    xp_buf = np.zeros((c, samples, band_rows, wp), dtype=x.dtype)
    # also the contiguous block a PreActivation's band is made in
    cols_buf = np.empty(c * samples * max(k * k * rows * w_out, band_rows * w), dtype=x.dtype)
    for n0 in range(0, n, samples):
        m = min(samples, n - n0)
        held = 0  # the input rows the buffer holds end here (none at r0 = 0)
        for r0 in range(0, h_out, rows):
            r = min(rows, h_out - r0)
            cols = cols_buf[:c * k * k * m * r * w_out].reshape(c, k, k, m, r, w_out)
            if direct:
                _take(x, cols[:, 0, 0].transpose(1, 0, 2, 3), slice(n0, n0 + m),
                      slice(stride * r0, stride * (r0 + r), stride), slice(0, wp, stride))
                yield n0, m, r0, r, cols
                continue
            # band row b is input row top + b; no band starts past row h, so lo <= hi
            xp, top = xp_buf[:, :m, :stride * (r - 1) + k], stride * r0 - lead
            lo, hi = max(0, -top), min(xp.shape[2], h - top)
            # rows the previous band also read move up stride*rows band rows
            kept = max(0, min(hi, held - top) - lo)
            xp[:, :, lo:lo + kept] = xp_buf[:, :m, lo + stride * rows:lo + stride * rows + kept]
            band = xp[:, :, lo + kept:hi, lead:lead + w].transpose(1, 0, 2, 3)
            # the patch buffer is free until the tile is built below
            dst = cols_buf[:band.size].reshape(band.shape) if isinstance(x, PreActivation) else band
            _take(x, dst, slice(n0, n0 + m), slice(top + lo + kept, top + hi), slice(w))
            if dst is not band:
                band[...] = dst
            xp[:, :, :lo] = xp[:, :, hi:] = 0
            held = top + hi
            for i in range(k):
                for j in range(k):
                    cols[:, i, j] = xp[:, :, i:i + stride * r:stride,
                                       j:j + stride * w_out:stride]
            yield n0, m, r0, r, cols


def _phase_slices(stride: int, phases: int, offset: int, size: int, g0: int, count: int):
    """For each phase rho < ``phases``: the slice of grid rows g0..g0+count
    (relative to g0) whose map row ``stride*g + rho - offset`` lies in
    [0, size), and the slice of those map rows."""
    out = []
    for rho in range(phases):
        lo = max(g0, -((rho - offset) // stride))
        hi = max(lo, min(g0 + count, (size - 1 + offset - rho) // stride + 1))
        out.append((slice(lo - g0, hi - g0),
                    slice(stride * lo + rho - offset, stride * hi + rho - offset, stride)))
    return out


def conv2d_forward(x: np.ndarray | PreActivation, p: ConvParams, add_to: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, tuple]:
    """Cross-correlate ``x`` with the filters; ``y`` is a fresh C-contiguous
    (N, C_out, H_out, W_out) array and the cache ``(x, p)``
    holds no patch matrix. The channel-major patch matrix is built one tile
    at a time (see ``_patch_tiles``; a 1x1 conv's tile is ``x`` sampled at
    the stride), and each tile's per-sample GEMMs write straight into
    ``y``. ``x`` must have
    ``p.in_channels`` channels and give an output of at least 1x1, which
    the graph's shape rules guarantee; ``p`` guarantees the rest.

    ``x`` may be a :class:`PreActivation`, which each tile applies as it
    copies its pixels, and ``add_to`` a C-contiguous array of the output's
    shape, which the caller owns: each tile's output is then made in a
    reused buffer and added into ``add_to``, and ``y`` is ``add_to``
    holding ``add_to + conv(x)``. Either way each output pixel takes the
    same float ops as the unfused conv, and add, bit for bit.
    ``conv2d_backward`` needs the array ``x`` stands for."""
    n, c_in, h, w = x.shape
    c_out = p.out_channels
    h_out, w_out = (conv_output_size(size, p.kernel[0], p.stride, p.padding)
                    for size in (h, w))
    w_mat = p.weights.reshape(c_out, -1)
    k = w_mat.shape[1]
    # an output tile made apart from y fits the budget too
    samples, rows = _tile_shape(n, k if add_to is None else max(k, c_out), h_out, w_out,
                                x.dtype.itemsize)
    dtype = np.result_type(w_mat, x.dtype)
    if add_to is None:
        # y is allocated contiguous, so each slice below is a view that
        # matmul writes through
        y = np.empty((n, c_out, h_out * w_out), dtype=dtype)
    else:
        y = add_to.reshape(n, c_out, h_out * w_out)
        out_buf = np.empty(samples * c_out * rows * w_out, dtype=dtype)
    for n0, m, r0, r, cols in _patch_tiles(x, p.kernel[0], p.stride, p.padding, h_out, w_out,
                                           samples, rows):
        cols = cols.reshape(k, m, r * w_out).transpose(1, 0, 2)
        dst = y[n0:n0 + m, :, r0 * w_out:(r0 + r) * w_out]
        if add_to is None:
            np.matmul(w_mat, cols, out=dst)
            continue
        out = np.matmul(w_mat, cols, out=out_buf[:dst.size].reshape(dst.shape))
        if p.bias is not None:
            out += p.bias[:, None]
        dst += out
    if add_to is None and p.bias is not None:
        y += p.bias[:, None]
    return y.reshape(n, c_out, h_out, w_out), (x, p)


def conv2d_backward(dy: np.ndarray, cache: tuple, relu_into_x: bool = False,
                    pending: Optional[np.ndarray] = None
                    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Exact gradients (dx, dw, db) of the forward map, by one path for every
    kernel, stride and padding, from one channel-major patch matrix of the
    zero-bordered ``dy`` and no patch matrix of ``x``.

    Write a padded input row as ``s*q + rho``: the rows of phase ``rho`` read
    only the taps ``rho + s*t`` of the kernel, from ``dy`` rows ``q - t``, so
    a stride-s transposed conv is s*s stride-1 convs of ``dy`` with sub-kernels
    of at most ``u = ceil(k/s)`` taps a side, then a depth-to-space shuffle
    (Shi et al. 2016; at stride 1, the flipped-kernel identity of Dumoulin &
    Visin 2016). Each tile of the (C_out, u, u) patch matrix of ``dy`` over the
    phase grid ``q`` feeds two GEMMs: ``dx`` by phase is the weights,
    transposed and flipped into one row block per phase, times the tile, and
    ``dw`` by phase accumulates the tile times the transpose of ``x`` by
    phase, which is copied into a reused buffer (this order ran a tile's GEMM
    1.5-1.8x faster than its transpose for 16- and 64-channel inputs); that
    product is written into the buffer ``dx`` by phase was made in, so no
    tile makes an array of the weights' size. A
    tile holds as many samples or rows as the larger of those two matrices
    fits in ``CONV_TILE_BYTES``: in a 1x1 320->128 conv the copy of ``x``
    has 2.5x the rows of the patches of ``dy``. Phases
    at or past ``k`` have no taps, so their ``dx`` is zero and they are
    skipped. Padding below the kernel size, which ``ConvParams`` holds to, makes
    every output window touch the input; that is what keeps both zero
    borders of ``dy`` nonnegative. ``dx`` is a fresh
    C-contiguous NCHW array, unless ``relu_into_x``.

    With ``relu_into_x``, ``x`` is a ReLU's output that the caller owns and
    that nothing reads after this call, and ``pending`` the gradient, if
    any, that x's other readers already sent: ``dx`` is then
    ``relu_backward(pending + dx, x)``, by the same float ops, written into
    ``x`` tile by tile and returned as ``x``, so no array of x's size is
    made. Each pixel of ``x`` is copied by phase before its gradient is
    written there, and no later tile reads it; that needs ``k >= s``, which
    gives every pixel a phase with taps and so a gradient. ``pending`` is
    only read."""
    x, p = cache
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    s, pad = p.stride, p.padding
    db = dy.sum(axis=(0, 2, 3)) if p.bias is not None else None
    u, phases, q0 = -(-k // s), min(s, k), pad // s
    # grid rows q0.. cover every padded row that holds an input row; grid row
    # g of phase rho is input row s*g + rho - offset
    grid_h, grid_w = ((pad + size - 1) // s - q0 + 1 for size in (h, w))
    offset = pad - s * q0
    # weight taps rho + s*(u-1-t) (zero past k) as rows (rho_h, rho_w, c) by
    # columns (o, t_h, t_w), the rows of the patch matrix of dy
    taps = (slice(None), slice(None), slice(None, None, -1), slice(phases),
            slice(None, None, -1), slice(phases))
    order = (3, 5, 1, 0, 2, 4)
    rows_x, rows_dy = phases * phases * c_in, c_out * u * u
    w_pad = np.zeros((c_out, c_in, s * u, s * u), dtype=p.weights.dtype)
    w_pad[:, :, :k, :k] = p.weights
    w_ph = w_pad.reshape(c_out, c_in, u, s, u, s)[taps].transpose(order).reshape(rows_x, rows_dy)
    del w_pad
    samples, rows = _tile_shape(n, max(rows_dy, rows_x), grid_h, grid_w, dy.dtype.itemsize)
    dtype = np.result_type(w_ph, dy)
    if relu_into_x:
        dx = x
    else:
        dx = (np.empty if phases == s else np.zeros)(x.shape, dtype=dtype)
    dw_ph = np.zeros((rows_dy, rows_x), dtype=np.result_type(dy, x))
    xs_buf = np.empty(rows_x * samples * rows * grid_w, dtype=x.dtype)
    # one buffer holds dx by phase, then, once dx has it, the tile's dw by phase
    buf = np.empty(max(xs_buf.size * dtype.itemsize, dw_ph.nbytes), dtype=np.uint8)
    dxs_buf = buf[:xs_buf.size * dtype.itemsize].view(dtype)
    dw_tile = buf[:dw_ph.nbytes].view(dw_ph.dtype).reshape(dw_ph.shape)
    cols_w = _phase_slices(s, phases, offset, w, 0, grid_w)
    for n0, m, r0, r, cols in _patch_tiles(dy, u, 1, u - 1 - q0, grid_h, grid_w, samples, rows):
        cols = cols.reshape(rows_dy, -1)
        size = rows_x * m * r * grid_w
        np.matmul(w_ph, cols, out=dxs_buf[:size].reshape(rows_x, -1))
        xs = xs_buf[:size].reshape(phases, phases, c_in, m, r, grid_w)
        dxs = dxs_buf[:size].reshape(xs.shape)
        for i, (gh, xh) in enumerate(_phase_slices(s, phases, offset, h, r0, r)):
            for j, (gw, xw) in enumerate(cols_w):
                xs_ij, x_ij = xs[i, j], x[n0:n0 + m, :, xh, xw]
                xs_ij[:, :, gh, gw] = x_ij.transpose(1, 0, 2, 3)
                xs_ij[:, :, :gh.start] = xs_ij[:, :, gh.stop:] = 0
                xs_ij[..., :gw.start] = xs_ij[..., gw.stop:] = 0
                dx_ij = dxs[i, j, :, :, gh, gw].transpose(1, 0, 2, 3)
                if not relu_into_x:
                    dx[n0:n0 + m, :, xh, xw] = dx_ij
                    continue
                if pending is not None:
                    dx_ij = pending[n0:n0 + m, :, xh, xw] + dx_ij
                np.multiply(dx_ij, x_ij > 0, out=x_ij)  # x_ij is copied in xs_ij
        dw_ph += np.matmul(cols, xs.reshape(rows_x, -1).T, out=dw_tile)
    dw_pad = np.zeros((c_out, c_in, s * u, s * u), dtype=dw_ph.dtype)
    dw_pad.reshape(c_out, c_in, u, s, u, s)[taps] = dw_ph.T.reshape(
        phases, phases, c_in, c_out, u, u).transpose(np.argsort(order))
    return dx, np.ascontiguousarray(dw_pad[:, :, :k, :k]), db


# ---------------------------------------------------------------------------
# Batch normalization (biased 1/M variance, per channel over N, H, W)
# ---------------------------------------------------------------------------

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9  # EMA decay kept on the running statistics


def batch_norm_forward(x: np.ndarray, p: BatchNormParams, mode: str = "train"
                       ) -> tuple[np.ndarray, tuple]:
    """Normalise ``x`` per channel, with no scale or shift (each consumer's
    :func:`affine_forward` applies its own). Train mode normalises by the
    batch statistics, which it also folds into ``p``'s running ones (it
    never reads them): it centres ``x`` once into a fresh ``xhat``, scales
    it in place and returns it, with the cache ``(xhat, inv_std)``. Infer
    mode returns ``x`` itself and the cache ``(x, None)``: the affine
    applies the running statistics, folded into its scale and shift. ``x``
    is only read. Train mode needs N*H*W >= 2, which the graph checks before
    any node runs."""
    if mode == "train":
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mean = np.einsum("nchw->c", x) / m
        xhat = x - mean[:, None, None]
        var = np.einsum("nchw,nchw->c", xhat, xhat) / m  # biased (1/M)
        p.running_mean[...] = BN_MOMENTUM * p.running_mean + (1 - BN_MOMENTUM) * mean
        p.running_var[...] = BN_MOMENTUM * p.running_var + (1 - BN_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std[:, None, None]
        return xhat, (xhat, inv_std)
    if mode == "infer":
        return x, (x, None)
    raise ValueError(f"unknown batch norm mode {mode!r}")


def batch_norm_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    """The input's gradient from ``dy``, the gradient of the normalised
    output summed over its consumers (the map is linear in ``dy``). Train
    mode includes the batch-statistic terms,
    ``inv_std * (dy - mean(dy) - xhat * mean(dy * xhat))`` per channel, and
    consumes its cache: ``dx`` is computed in place in ``xhat``, which
    ``dy`` must match in dtype (as in the graph). Infer mode's forward is
    the identity, and so is its backward: it returns ``dy``. ``dy`` is only
    read."""
    xhat, inv_std = cache
    if inv_std is None:
        return dy
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    mean_dy = np.einsum("nchw->c", dy) / m
    mean_dy_xhat = np.einsum("nchw,nchw->c", dy, xhat) / m
    dx = np.multiply(xhat, -mean_dy_xhat[:, None, None], out=xhat)
    dx += dy
    dx -= mean_dy[:, None, None]
    dx *= inv_std[:, None, None]
    return dx


def _running_inv_std(p: AffineParams) -> np.ndarray:
    return 1.0 / np.sqrt(np.concatenate([s.running_var for s in p.stats]) + BN_EPSILON)


def _scale_shift(p: AffineParams, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``gamma`` and ``beta`` in train mode; in infer mode the folded
    ``s = gamma * inv_std`` and ``t = beta - running_mean * s`` of the
    joined running statistics."""
    if mode == "train":
        return p.gamma, p.beta
    scale = p.gamma * _running_inv_std(p)
    return scale, p.beta - np.concatenate([s.running_mean for s in p.stats]) * scale


def _channel_slices(parts) -> list[slice]:
    """Each part's channels in the join."""
    slices, start = [], 0
    for part in parts:
        slices.append(slice(start, start + part.shape[1]))
        start += part.shape[1]
    return slices


def affine_forward(parts: list[np.ndarray], p: AffineParams, mode: str) -> np.ndarray:
    """``parts`` joined along channels, times the per-channel scale plus
    the shift, in one fresh array of the first part's dtype that the
    caller may clamp in place: ``xhat * gamma + beta`` of the normalised
    parts in train mode, ``x * s + t`` with the folded ``s`` and ``t`` of
    the raw parts in infer mode. Each part is written straight into its
    channels, so the join copies nothing of its own."""
    scale, shift = _scale_shift(p, mode)
    n, _, h, w = parts[0].shape
    y = np.empty((n, scale.size, h, w), dtype=parts[0].dtype)
    for part, sl in zip(parts, _channel_slices(parts)):
        np.multiply(part, scale[sl, None, None], out=y[:, sl])
        y[:, sl] += shift[sl, None, None]
    return y


def affine_backward(dz: np.ndarray, parts: list[np.ndarray], p: AffineParams, mode: str
                    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Gradients (one per part, dgamma, dbeta) of :func:`affine_forward`.
    ``dz`` is consumed: each part's gradient, ``dz`` times the scale, is
    written into its channels of ``dz`` and returned as a view of them.
    The parts are only read; in infer mode, where they are the raw inputs,
    ``dgamma`` normalises them by the running statistics."""
    scale, _ = _scale_shift(p, mode)
    slices = _channel_slices(parts)
    if mode == "train":
        xhats = parts
    else:
        inv_std = _running_inv_std(p)
        xhats = [(part - s.running_mean[:, None, None]) * inv_std[sl, None, None]
                 for part, s, sl in zip(parts, p.stats, slices)]
    dbeta = np.einsum("nchw->c", dz)
    dgamma = np.concatenate([np.einsum("nchw,nchw->c", dz[:, sl], xhat)
                             for xhat, sl in zip(xhats, slices)])
    dz *= scale[:, None, None]
    return [dz[:, sl] for sl in slices], dgamma, dbeta


# ---------------------------------------------------------------------------
# ReLU, pooling, dense head
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp ``x`` at 0 in place and return ``(y, y)``: the output is its own
    backward cache. NaN maps to 0. Because ``x`` is overwritten, the caller
    must own it, as :meth:`PreActivation.array` owns its affine's fresh
    output; never pass an array that anything else still reads."""
    np.fmax(x, 0, out=x)
    return x, x


def relu_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``dy`` where the forward output is positive, else 0 (the subgradient
    at exactly 0 is 0), written into ``y`` and returned: ``y`` is consumed,
    so the caller must own it and match ``dy``'s dtype, as an
    ``affine_relu`` backward owns the map made for it; ``dy`` is only read. The zeroing
    multiplies, so a non-finite ``dy`` at ``y <= 0`` gives NaN rather than
    being masked: a bad gradient propagates to where it can be localised."""
    return np.multiply(dy, y > 0, out=y)


def global_avg_pool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    y = x.mean(axis=(2, 3), keepdims=True)
    return y, (x.shape,)


def global_avg_pool_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    (shape,) = cache
    scale = 1.0 / (shape[2] * shape[3])
    return np.broadcast_to(dy * scale, shape).astype(dy.dtype, copy=False).copy()


def fully_connected_forward(x: np.ndarray, p: FCParams) -> tuple[np.ndarray, tuple]:
    """x is (N, D_in); returns (N, D_out)."""
    y = x @ p.weights.T + p.bias
    return y, (x, p)


def fully_connected_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, p = cache
    dx = dy @ p.weights
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the batch and its gradient
    (softmax - one_hot) / N, computed with max-subtraction for stability.
    ``logits`` is (N, K); ``labels`` must be N class indices in [0, K)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        bad = int(np.argmax((labels < 0) | (labels >= k)))
        raise ValueError(f"label {labels[bad]} at row {bad} outside [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def msr_initialize(params, seed=0):
    """Zero-mean normal weights with std sqrt(2 / fan_in); zero biases;
    identity affine; fresh running statistics. Deterministic given an integer seed."""
    rng = _as_rng(seed)
    if isinstance(params, ConvParams):
        c_out, c_in, kh, kw = params.weights.shape
        fan_in = c_in * kh * kw
        std = np.sqrt(2.0 / fan_in)
        params.weights[...] = rng.normal(0.0, std, size=params.weights.shape)
        if params.bias is not None:
            params.bias[...] = 0.0
    elif isinstance(params, FCParams):
        fan_in = params.weights.shape[1]
        std = np.sqrt(2.0 / fan_in)
        params.weights[...] = rng.normal(0.0, std, size=params.weights.shape)
        params.bias[...] = 0.0
    elif isinstance(params, AffineParams):
        params.gamma[...] = 1.0
        params.beta[...] = 0.0
    elif isinstance(params, BatchNormParams):
        params.running_mean[...] = 0.0
        params.running_var[...] = 1.0
    else:
        raise TypeError(f"cannot initialize {type(params).__name__}")
    return params
