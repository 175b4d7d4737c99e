"""Neural building blocks: convolution, projections, normalization,
attention, dropout, and fan-scaled parameter initialization.

Fused ops (conv2d, pooling, linear, layer_norm, softmax, dropout) register
their own backward rules through tensor.apply_op; everything
else is composed from tensor primitives. conv2d can apply its ReLU inside
the same record; its forward and backward build their column matrices in
the caller's workspace (a contextvar), which nothing keeps once it exits.
Dropout masks come from a counter-based stream (seeding.counter_bits),
one per seed. Leading axes are batch axes throughout: the map ops take
(..., C, H, W) and the row ops (..., d). A backward rule keeps the shapes
and arrays it needs, never an input Tensor, so a recorded op does not keep
its input alive. A conv keeps its input's array, not its column matrix,
and rebuilds the columns in backward.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidRate, ShapeMismatch
from .seeding import counter_bits, derive_seed
from .tensor import Tensor, apply_op


@dataclass
class Conv2dParams:
    kernel: Tensor  # (out_ch, in_ch, kh, kw)
    bias: Tensor    # (out_ch,)
    stride: int = 1
    padding: int = 0


@dataclass
class PointwiseProj:
    weight: Tensor  # (d, C)
    bias: Tensor    # (d,)


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5


@dataclass
class AttnHead:
    wq: Tensor  # (d, d_h)
    wk: Tensor
    wv: Tensor


@dataclass
class MhsaParams:
    heads: list[AttnHead] = field(default_factory=list, metadata={"inline": True})
    out_proj: Tensor = None  # (d, d)
    dropout: float = 0.0


# ---------------------------------------------------------------------------
# convolution


def _tap_span(offset: int, stride: int, pad: int, size: int, out_size: int):
    """For one kernel tap along one axis: the output positions whose input
    falls inside the image, and the matching strided input slice, or None
    when every position of the tap reads padding."""
    lo = max(0, -((offset - pad) // stride))
    hi = min(out_size, (size - 1 + pad - offset) // stride + 1)
    if lo >= hi:
        return None
    start = lo * stride + offset - pad
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _im2col(xd: np.ndarray, row_spans: list, col_spans: list, h_out: int,
            w_out: int) -> np.ndarray:
    """The column matrix (n, c*kh*kw, h_out*w_out) of images (n, c, h, w),
    in the workspace's scratch: each kernel tap copies the input it
    reads from inside the image into the zeroed (n, c, kh, kw, h_out, w_out)
    buffer, so padding is never materialised."""
    n, c = xd.shape[:2]
    kh, kw = len(row_spans), len(col_spans)
    cols = _scratch((n, c, kh, kw, h_out, w_out))
    cols.fill(0)
    for i, rs in enumerate(row_spans):
        for j, cs in enumerate(col_spans):
            if rs is not None and cs is not None:
                cols[:, :, i, j, rs[0], cs[0]] = xd[:, :, rs[1], cs[1]]
    return cols.reshape(n, c * kh * kw, h_out * w_out)


def conv2d(x: Tensor, p: Conv2dParams, relu: bool = False) -> Tensor:
    """2-D convolution (cross-correlation) over (..., C, H, W); each index of
    the leading axes is one image, and (C, H, W) is the case with none.
    relu=True rectifies the output inside the same op record, exactly as
    T.relu on the result would.

    H_out = floor((H + 2*pad - kh)/stride) + 1, likewise for W. Padding is
    never materialised: each kernel tap copies only the input it reads from
    inside the image into a zeroed column buffer in the workspace's scratch.
    A recorded conv keeps x's array, not the columns (2.25x the input at 3x3
    stride 2), and its backward rebuilds them into the same scratch with the
    same tap loop, so they are bitwise the forward's. Once the kernel gradient
    is taken they are dead: the column gradient overwrites them and is folded
    onto a padded input gradient with one bincount, which adds each site's
    taps in the same order as a loop over the taps would.
    """
    if x.ndim < 3:
        raise ShapeMismatch(f"conv2d expects (..., C, H, W), got {x.shape}")
    out_ch, in_ch, kh, kw = p.kernel.shape
    lead, (c, h, w) = x.shape[:-3], x.shape[-3:]
    if c != in_ch:
        raise ShapeMismatch(f"input has {c} channels, kernel expects {in_ch}")
    s, pad = int(p.stride), int(p.padding)
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ShapeMismatch(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    h_out = (hp - kh) // s + 1
    w_out = (wp - kw) // s + 1
    xd = x.data.reshape(-1, c, h, w)
    n = xd.shape[0]
    geometry = (n, c, h, w, kh, kw, s, pad, h_out, w_out)
    row_spans, col_spans, _ = _conv_geometry(*geometry)
    kshape = p.kernel.shape
    kmat = p.kernel.data.reshape(out_ch, -1)
    out = np.matmul(kmat, _im2col(xd, row_spans, col_spans, h_out, w_out))
    out = out.reshape(lead + (out_ch, h_out, w_out))
    out += p.bias.data[:, None, None]
    inputs = (x, p.kernel, p.bias)
    mask = None
    if relu:
        T.check_finite("conv2d", out)
        if T.is_recording(inputs):  # only backward reads the mask
            mask = out > 0
        np.fmax(out, 0.0, out=out)  # as T.relu: NaN -> 0, -0.0 -> +0.0

    need_gx = x.requires_grad

    def bwd(g):
        if mask is not None:
            g = g * mask
        gm = g.reshape(n, out_ch, h_out * w_out)
        gbias = gm.sum(axis=(0, 2))
        cm = _im2col(xd, row_spans, col_spans, h_out, w_out)
        if h_out * w_out >= _BATCHED_KGRAD_SITES:
            gkernel = np.matmul(gm, cm.transpose(0, 2, 1)).sum(axis=0)
        else:
            gkernel = np.tensordot(gm, cm, axes=([0, 2], [0, 2]))
        gkernel = gkernel.reshape(kshape)
        if not need_gx:
            return None, gkernel, gbias
        gcols = _scratch(cm.shape)  # cm is dead: same buffer
        np.matmul(kmat.T, gm, out=gcols)
        flat = np.bincount(_fold_index(*geometry),
                           weights=gcols.reshape(-1), minlength=n * c * hp * wp)
        gx = flat.reshape(n, c, hp, wp)[:, :, pad:pad + h, pad:pad + w]
        return gx.reshape(lead + (c, h, w)), gkernel, gbias

    return apply_op("conv2d", out, inputs, bwd)


# Below this many output sites per image, one tensordot over all images beats
# a per-image batched matmul summed over images; above it, tensordot's
# contiguous copy of the column buffer dominates.
_BATCHED_KGRAD_SITES = 64
_workspace: ContextVar[dict] = ContextVar("castnet_conv_workspace")


@contextmanager
def workspace():
    """Keep the conv scratch buffers and geometries (tap spans and fold
    indices) made in this context for reuse until it exits; train() and
    metrics.evaluate() each run in one. Also a decorator. Outside any
    workspace, a thread started inside one included, a conv allocates its
    buffers per call."""
    token = _workspace.set({})
    try:
        yield
    finally:
        _workspace.reset(token)


def _scratch(shape: tuple) -> np.ndarray:
    """An uninitialised array of this shape: a view of the prefix of the
    workspace's one buffer, which grows to the largest request and never
    shrinks. Later requests in the same workspace reuse it, so the caller
    must be done with it before the next."""
    bufs = _workspace.get({})
    size = math.prod(shape)
    buf = bufs.get("scratch")
    if buf is None or buf.size < size:
        buf = bufs["scratch"] = np.empty(size)
    return buf[:size].reshape(shape)


def _conv_geometry(n: int, c: int, h: int, w: int, kh: int, kw: int, s: int,
                   pad: int, h_out: int, w_out: int) -> list:
    """[row_spans, col_spans, fold index] of one conv geometry: the _tap_span
    of each kernel row and column, and the fold index once a backward has
    asked _fold_index for it (None before). A workspace keeps one per
    geometry until it exits; outside any, each call builds its own."""
    cache = _workspace.get({})
    key = (n, c, h, w, kh, kw, s, pad)
    if key not in cache:
        cache[key] = [[_tap_span(i, s, pad, h, h_out) for i in range(kh)],
                      [_tap_span(j, s, pad, w, w_out) for j in range(kw)], None]
    return cache[key]


def _fold_index(n: int, c: int, h: int, w: int, kh: int, kw: int, s: int, pad: int,
                h_out: int, w_out: int) -> np.ndarray:
    """For each entry of the column buffer (n, c, kh, kw, h_out, w_out), read
    flat, its flat position in the padded image stack (n, c, hp, wp). A
    workspace keeps it with the geometry's spans until it exits: a run over
    clips of many shapes holds one int64 index, the size of its float64
    columns, for each."""
    geometry = _conv_geometry(n, c, h, w, kh, kw, s, pad, h_out, w_out)
    if geometry[2] is None:
        hp, wp = h + 2 * pad, w + 2 * pad
        rows = np.arange(kh)[:, None] + s * np.arange(h_out)  # (kh, h_out)
        cols = np.arange(kw)[:, None] + s * np.arange(w_out)  # (kw, w_out)
        site = rows[:, None, :, None] * wp + cols[None, :, None, :]
        planes = np.arange(n * c).reshape(n * c, 1, 1, 1, 1) * (hp * wp)
        # left writeable: bincount copies a read-only index on every call
        geometry[2] = (planes + site).reshape(-1)
    return geometry[2]


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k mean pooling over the last two axes, (..., H, W)."""
    if k == 1:
        return x
    *lead, h, w = x.shape
    if h % k or w % k:
        raise ShapeMismatch(f"spatial dims {h}x{w} not divisible by pool size {k}")
    out = x.data.reshape(*lead, h // k, k, w // k, k).mean(axis=(-3, -1))

    def bwd(g):
        return (np.repeat(np.repeat(g, k, axis=-2), k, axis=-1) * (1.0 / (k * k)),)

    return apply_op("avg_pool2d", out, (x,), bwd)


# ---------------------------------------------------------------------------
# projections and pooling


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of the last axis as one op record, x @ weight^T + bias:
    (..., c), (d, c), (d,) -> (..., d).

    x multiplies a contiguous copy of weight^T, which is what a transpose
    followed by a matmul multiplies, so the two agree bit for bit.
    """
    if weight.ndim != 2 or bias.shape != weight.shape[:1] or x.shape[-1] != weight.shape[1]:
        raise ShapeMismatch(f"linear of input {x.shape} needs weight (d, {x.shape[-1]}) "
                            f"and bias (d,), got {weight.shape} and {bias.shape}")
    d, c = weight.shape
    in_shape = x.shape
    wt = np.ascontiguousarray(weight.data.T)
    rows = x.data.reshape(-1, c)
    out = (rows @ wt).reshape(in_shape[:-1] + (d,)) + bias.data

    def bwd(g):
        g2 = g.reshape(-1, d)
        return ((g2 @ wt.T).reshape(in_shape), (rows.T @ g2).T,
                g.sum(axis=tuple(range(g.ndim - 1))))

    return apply_op("linear", out, (x, weight, bias), bwd)


def pointwise_project(fm: Tensor, p: PointwiseProj) -> Tensor:
    """Per-site channel projection: out[..., :, h, w] = weight @ in[..., :, h, w]
    + bias, over (..., C, H, W); C becomes the projection's output dim."""
    if fm.ndim < 3:
        raise ShapeMismatch(f"pointwise_project expects (..., C, H, W), got {fm.shape}")
    d, c = p.weight.shape
    *lead, c_in, h, w = fm.shape
    if c_in != c:
        raise ShapeMismatch(f"feature map has {c_in} channels, weight expects {c}")
    flat = T.reshape(fm, (*lead, c, h * w))
    projected = linear(T.transpose(flat), p.weight, p.bias)
    return T.reshape(T.transpose(projected), (*lead, d, h, w))


def global_avg_pool(fm: Tensor) -> Tensor:
    """Mean over the last two axes: (..., C, H, W) -> (..., C)."""
    xd = fm.data
    sites = xd.shape[-1] * xd.shape[-2]
    out = xd.reshape(*xd.shape[:-2], sites).mean(axis=-1)
    shape = fm.shape

    def bwd(g):
        return (np.broadcast_to((g * (1.0 / sites))[..., None, None], shape),)

    return apply_op("global_avg_pool", out, (fm,), bwd)


# ---------------------------------------------------------------------------
# normalization, softmax, dropout


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalization of each row (last axis) to zero mean and unit (biased)
    variance, then scale by gamma and shift by beta. eps sits inside the
    sqrt. Leading axes are rows too: (..., n, d)."""
    if x.ndim < 2:
        raise ShapeMismatch(f"layer_norm expects (..., n, d), got {x.shape}")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + p.eps)
    xhat = (xd - mu) * inv
    gamma = p.gamma.data
    out = gamma * xhat + p.beta.data
    rows = tuple(range(x.ndim - 1))

    def bwd(g):
        dgamma = (g * xhat).sum(axis=rows)
        dbeta = g.sum(axis=rows)
        dxhat = g * gamma
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return apply_op("layer_norm", out, (x, p.gamma, p.beta), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis with per-row max subtraction for
    stability; leading axes are rows too: (..., n, m)."""
    if x.ndim < 2:
        raise ShapeMismatch(f"softmax_rows expects (..., n, m), got {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return apply_op("softmax_rows", out, (x,), bwd)


def dropout(x: Tensor, rate: float, mode: str, seed=0) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate). Eval mode is the identity. Deterministic per seed.

    seed is one int, or one seed per index of x's leading axis; then entry
    i's mask is drawn from seed[i] at shape x.shape[1:], exactly the mask
    that entry alone would get from that seed. Seeds nest: seed[h][b] is
    the seed of x[h, b].
    """
    if not (0.0 <= rate < 1.0):
        raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown dropout mode '{mode}'")
    if mode == "eval" or rate == 0.0:
        return x
    keep = _keep_mask(seed, x.shape, rate)
    scale = 1.0 / (1.0 - rate)
    # (a * keep) * scale equals a * (keep * scale) bit for bit, signed zeros
    # and inf * 0 = NaN included, and the record keeps one byte per entry
    return apply_op("dropout", x.data * keep * scale, (x,),
                    lambda g: (g * keep * scale,))


def _keep_mask(seed, shape: tuple, rate: float) -> np.ndarray:
    """Keep flags of this shape. seed is one int in [0, 2**64), or a nested
    list of them over the leading axes; each seed's block comes from its own
    counter-based stream, so it does not depend on the other seeds."""
    if not _is_int_seed(seed):  # numpy would truncate 1.5 and accept "3" or True
        raise ConfigError(f"dropout seeds must be ints, got {seed!r}")
    try:
        seeds = np.array(seed, dtype=np.uint64)
    except OverflowError:
        raise ConfigError(f"dropout seeds must be in [0, 2**64), got {seed}") from None
    except ValueError as e:  # ragged nesting
        raise ShapeMismatch(f"dropout seeds do not nest evenly: {e}") from None
    if seeds.shape != shape[:seeds.ndim]:
        raise ShapeMismatch(f"dropout seeds of shape {seeds.shape} for leading axes "
                            f"of shape {shape}")
    bits = counter_bits(seeds, int(np.prod(shape[seeds.ndim:], dtype=np.int64)))
    # bits * 2**-53 >= rate, exactly: rate * 2**53 is exact, bits are integers
    return (bits >= np.uint64(math.ceil(rate * 2.0 ** 53))).reshape(shape)


def _is_int_seed(seed) -> bool:
    if isinstance(seed, (list, tuple)):
        return all(_is_int_seed(s) for s in seed)
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)


# ---------------------------------------------------------------------------
# attention


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, drop_rate: float,
                         mode: str, seed) -> tuple[Tensor, Tensor]:
    """Single-head attention: softmax(q k^T / sqrt(d_h)) v over the last two
    axes; leading axes are a batch.

    Returns (output, attention weights before dropout).
    """
    d_h = q.shape[-1]
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d_h))
    attn = softmax_rows(scores)
    return T.matmul(dropout(attn, drop_rate, mode, seed), v), attn


def attention(xq: Tensor, xkv: Tensor, heads: list[AttnHead], out_proj: Tensor,
              drop_rate: float, mode: str, seed, tag: str) -> tuple[Tensor, Tensor]:
    """Multi-head attention of queries from xq (..., n, d) over keys and
    values from xkv (..., m, d), with the same leading axes; self-attention
    passes the same tensor twice.

    The per-head projections are concatenated, so Q, K and V take one
    matmul each. The heads then become one leading axis, (H, ..., n, d_h),
    and one scaled_dot_attention covers them all. Head h draws its
    attention-dropout mask from derive_seed(seed, tag, h), per clip when
    seed holds one seed per clip. Returns (head outputs concatenated in
    head order, then @ out_proj; per-head attention weights, (H, ..., n, m)).
    """
    if xq.ndim < 2 or xkv.ndim < 2:
        raise ShapeMismatch(f"attention expects (..., n, d), got {xq.shape} and {xkv.shape}")
    d = xq.shape[-1]
    n_heads = len(heads)
    if n_heads == 0 or d % n_heads != 0:
        raise ConfigError(f"token dim {d} not divisible by {n_heads} heads")

    def project(x, name):
        w = T.concat([getattr(head, name) for head in heads], axis=-1)  # (d, H*d_h)
        y = T.matmul(x, w)
        y = T.reshape(y, y.shape[:-1] + (n_heads, y.shape[-1] // n_heads))
        r = y.ndim  # (..., n, H, d_h) -> (H, ..., n, d_h)
        return T.transpose(y, (r - 2,) + tuple(range(r - 2)) + (r - 1,))

    head_seeds = [derive_seed(seed, tag, h) for h in range(n_heads)]
    out, attn = scaled_dot_attention(project(xq, "wq"), project(xkv, "wk"),
                                     project(xkv, "wv"), drop_rate, mode, head_seeds)
    r = out.ndim  # (H, ..., n, d_h) -> (..., n, H, d_h) -> (..., n, H*d_h)
    merged = T.transpose(out, tuple(range(1, r - 1)) + (0, r - 1))
    merged = T.reshape(merged, merged.shape[:-2] + (n_heads * merged.shape[-1],))
    return T.matmul(merged, out_proj), attn


def mhsa(x: Tensor, p: MhsaParams, mode: str = "eval", seed=0) -> Tensor:
    """Multi-head self-attention over (..., n, d): attention() with queries,
    keys and values all from x, dropout on the attention weights."""
    return attention(x, x, p.heads, p.out_proj, p.dropout, mode, seed, "mhsa_head")[0]


# ---------------------------------------------------------------------------
# initialization: fan-scaled uniform, bounds +-sqrt(6/(fan_in+fan_out));
# biases zero, layer-norm gamma one / beta zero.


def fan_uniform(shape, fan_in: int, fan_out: int, seed: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return T.uniform(shape, -bound, bound, seed, requires_grad=True)


def init_linear(d_in: int, d_out: int, seed: int) -> tuple[Tensor, Tensor]:
    """Weight (d_out, d_in) and zero bias (d_out,)."""
    w = fan_uniform((d_out, d_in), d_in, d_out, seed)
    b = T.zeros((d_out,), requires_grad=True)
    return w, b


def init_conv2d(out_ch: int, in_ch: int, kh: int, kw: int, stride: int,
                padding: int, seed: int) -> Conv2dParams:
    fan_in = in_ch * kh * kw
    fan_out = out_ch * kh * kw
    kernel = fan_uniform((out_ch, in_ch, kh, kw), fan_in, fan_out, seed)
    bias = T.zeros((out_ch,), requires_grad=True)
    return Conv2dParams(kernel=kernel, bias=bias, stride=stride, padding=padding)


def init_pointwise(d: int, c: int, seed: int) -> PointwiseProj:
    return PointwiseProj(*init_linear(c, d, seed))


def init_layer_norm(d: int) -> LayerNormParams:
    return LayerNormParams(gamma=T.ones((d,), requires_grad=True),
                           beta=T.zeros((d,), requires_grad=True))


def init_mhsa(d: int, n_heads: int, drop_rate: float, seed: int) -> MhsaParams:
    if d % n_heads != 0:
        raise ConfigError(f"token dim {d} not divisible by {n_heads} heads")
    d_h = d // n_heads
    heads = []
    for i in range(n_heads):
        heads.append(AttnHead(
            wq=fan_uniform((d, d_h), d, d_h, derive_seed(seed, "wq", i)),
            wk=fan_uniform((d, d_h), d, d_h, derive_seed(seed, "wk", i)),
            wv=fan_uniform((d, d_h), d, d_h, derive_seed(seed, "wv", i)),
        ))
    out_proj = fan_uniform((d, d), d, d, derive_seed(seed, "out"))
    return MhsaParams(heads=heads, out_proj=out_proj, dropout=drop_rate)
