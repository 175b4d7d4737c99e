"""Dense tensors with define-by-run reverse-mode automatic differentiation.

Every forward operation that touches a gradient-requiring tensor links its
output to an op record, which links to the records of the op's inputs. A
graph is freed with the last tensor that links to it, so no caller clears
it. backward(loss) replays the records the loss reaches and returns the
gradient of every leaf the walk reaches. Grad mode and debug NaN checks are
context-local, so threads may train at once.

Gradient arrays are combined out-of-place during the backward walk, so op
backward closures are free to return views of saved arrays.
"""

from __future__ import annotations

import itertools
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    InvalidShape,
    NotScalar,
    NumericalFailure,
    ShapeMismatch,
)
from .kvtext import decode_utf8

_node_ids = itertools.count(1)
_grad_enabled: ContextVar[bool] = ContextVar("castnet_grad_enabled", default=True)
_debug_nan_checks: ContextVar[bool] = ContextVar("castnet_debug_nan_checks", default=False)


class Tensor:
    """A dense n-dimensional float array, optionally in a gradient graph.

    data is a contiguous float64 numpy array. A tensor created with
    requires_grad=True, and every recorded op output, gets a node_id that
    stays stable for the tensor's lifetime, which lets optimizer state
    outlive graphs. record links a recorded op output to its graph.
    """

    __slots__ = ("data", "requires_grad", "node_id", "record")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.node_id: Optional[int] = next(_node_ids) if requires_grad else None
        self.record: Optional[_OpRecord] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class _OpRecord(NamedTuple):
    """One recorded op: its inputs' node ids and records, never their Tensors."""
    op: str
    out_id: int
    input_ids: tuple
    input_records: tuple
    backward_fn: Callable[[np.ndarray], tuple]


class GradientMap(dict):
    """Mapping node_id -> gradient Tensor with the same shape as its leaf;
    it holds no record, so it keeps no graph alive."""

    def of(self, param: Tensor) -> Tensor:
        """param's gradient as a fresh array; zeros when the loss did not
        reach param."""
        g = self.get(param.node_id)
        return Tensor(np.zeros_like(param.data) if g is None else g.data.copy())


@contextmanager
def no_grad():
    """Disable recording in this context (evaluation mode)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def is_grad_enabled() -> bool:
    return _grad_enabled.get()


def set_debug_nan_checks(enabled: bool) -> None:
    """Check every op output for NaN/Inf in this context (slow; debugging)."""
    _debug_nan_checks.set(bool(enabled))


def is_recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over these inputs is recorded: recording is on and
    some input requires a gradient. A fused op asks before building state
    that only its backward reads."""
    return _grad_enabled.get() and any(t.requires_grad for t in inputs)


def check_finite(op: str, out_data: np.ndarray) -> None:
    """With debug NaN checks on, raise NumericalFailure if op's output is not
    all finite. apply_op calls it; a fused op also calls it on an
    intermediate it would otherwise hide, such as the input of its ReLU."""
    if _debug_nan_checks.get() and not np.all(np.isfinite(out_data)):
        raise NumericalFailure(f"non-finite output from op '{op}'")


def apply_op(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
             backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap a computed array as a Tensor; when recording, link it to a record.

    backward_fn(gout) must return one gradient array (or None) per input,
    in order. Used by this module's ops and by fused ops in nn.
    """
    check_finite(op, out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = is_recording(inputs)
    out.node_id = out.record = None
    if out.requires_grad:
        out.node_id = next(_node_ids)
        out.record = _OpRecord(op, out.node_id, tuple(t.node_id for t in inputs),
                               tuple(t.record for t in inputs), backward_fn)
    return out


def _reachable(loss: Tensor) -> dict[int, _OpRecord]:
    """out_id -> record for every record the loss links to."""
    found, todo = {}, [loss.record]
    while todo:
        rec = todo.pop()
        if rec is not None and rec.out_id not in found:
            found[rec.out_id] = rec
            todo.extend(rec.input_records)
    return found


def backward(loss: Tensor) -> GradientMap:
    """d(loss)/d(leaf) for every leaf that the loss reaches; read them
    through GradientMap.of, which gives zeros for the rest. Replays the
    records the loss reaches, newest first, and accumulates nothing between
    calls. The graph lives until its last tensor, the loss too, is dropped.
    """
    if loss.size != 1:
        raise NotScalar(f"loss must be scalar, got shape {loss.shape}")
    pending: dict[int, np.ndarray] = {}
    if loss.node_id is not None:
        pending[loss.node_id] = np.ones_like(loss.data)
    for out_id, rec in sorted(_reachable(loss).items(), reverse=True):
        gout = pending.pop(out_id, None)
        if gout is None:
            continue
        grads_in = rec.backward_fn(gout)
        for nid, gin in zip(rec.input_ids, grads_in):
            if nid is None or gin is None:
                continue
            prev = pending.get(nid)
            pending[nid] = gin if prev is None else prev + gin
    # every record's output was popped above, so only leaves remain
    return GradientMap((nid, Tensor(g)) for nid, g in pending.items())


# ---------------------------------------------------------------------------
# construction


def _check_shape(shape) -> tuple:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise InvalidShape("shape must be nonempty")
    if any(s < 1 for s in shape):
        raise InvalidShape(f"all dimensions must be >= 1, got {shape}")
    return shape


def zeros(shape, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(_check_shape(shape)), requires_grad)


def ones(shape, requires_grad=False) -> Tensor:
    return Tensor(np.ones(_check_shape(shape)), requires_grad)


def uniform(shape, lo: float, hi: float, seed: int, requires_grad=False) -> Tensor:
    shape = _check_shape(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad)


def gaussian(shape, mu: float, sd: float, seed: int, requires_grad=False) -> Tensor:
    shape = _check_shape(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(mu + sd * rng.standard_normal(size=shape), requires_grad)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (..., k, m) -> (..., n, m).

    b either has a's leading axes or is a 2-D matrix shared by every
    leading index; a shared matrix costs one (N*n, k) x (k, m) product.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul needs operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    if b.ndim == 2:
        k, m = bd.shape
        a_shape = a.shape
        a2 = ad.reshape(-1, k)
        out = (a2 @ bd).reshape(a_shape[:-1] + (m,))

        def bwd(g):
            g2 = g.reshape(-1, m)
            return (g2 @ bd.T).reshape(a_shape), a2.T @ g2
    else:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeMismatch(f"leading axes differ: {a.shape} x {b.shape}")
        out = ad @ bd

        def bwd(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return apply_op("matmul", out, (a, b), bwd)


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    """Broadcasting is deliberately restricted: the operands have one shape,
    or the lower-rank one equals the other's trailing shape and broadcasts
    over its leading axes."""
    n = min(a.ndim, b.ndim)
    if a.shape[a.ndim - n:] != b.shape[b.ndim - n:]:
        raise ShapeMismatch(f"incompatible shapes for elementwise op: {a.shape} vs {b.shape}")


def _sum_to(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum g over its leading axes down to its trailing ndim axes."""
    return g if g.ndim == ndim else g.sum(axis=tuple(range(g.ndim - ndim)))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    na, nb = a.ndim, b.ndim
    return apply_op("add", a.data + b.data, (a, b),
                    lambda g: (_sum_to(g, na), _sum_to(g, nb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    na, nb = a.ndim, b.ndim
    return apply_op("sub", a.data - b.data, (a, b),
                    lambda g: (_sum_to(g, na), -_sum_to(g, nb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    ad, bd = a.data, b.data
    return apply_op("mul", ad * bd, (a, b),
                    lambda g: (_sum_to(g * bd, ad.ndim), _sum_to(g * ad, bd.ndim)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op("scale", a.data * c, (a,), lambda g: (g * c,))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) of a float array, with exp taken only of values <= 0
    so that no entry overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = stable_sigmoid(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply_op("sigmoid", out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return apply_op("exp", out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= 0):
        raise DomainError("log of non-positive value")
    return apply_op("log", np.log(x), (a,), lambda g: (g / x,))


def relu(a: Tensor) -> Tensor:
    x = a.data
    mask = x > 0
    # fmax returns the non-NaN operand and +0.0 for -0.0, like where(x > 0, x, 0)
    return apply_op("relu", np.fmax(x, 0.0), (a,), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed as max(x,0) + log1p(e^-|x|) to avoid overflow."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bwd(g):
        return (g * stable_sigmoid(x),)

    return apply_op("softplus", out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return apply_op("sum_all", np.array([a.data.sum()]), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = _check_shape(shape)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(str(e)) from None
    return apply_op("reshape", out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    if axes is None:
        if a.ndim < 2:
            raise ShapeMismatch("default transpose expects a tensor of rank >= 2")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))
    return apply_op("transpose", out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return apply_op("concat", out, tensors, bwd)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatch("stack of zero tensors")
    out = np.stack([t.data for t in tensors], axis=0)
    # backward hands out the views g[0], g[1], ...
    return apply_op("stack", out, tensors, tuple)


def mean_axis0(a: Tensor, axis: int = 0) -> Tensor:
    """Mean over one axis (the leading one by default), which is dropped."""
    n = a.shape[axis]
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g * (1.0 / n), axis), shape),)

    return apply_op("mean_axis0", a.data.mean(axis=axis), (a,), bwd)


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile the last axis into n identical rows: (..., d) -> (..., n, d)."""
    lead, d = v.shape[:-1], v.shape[-1]
    out = np.broadcast_to(v.data[..., None, :], lead + (n, d)).copy()
    return apply_op("repeat_rows", out, (v,), lambda g: (g.sum(axis=-2),))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(builder: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Compare backward gradients against central finite differences.

    builder must rebuild the scalar loss from the current parameter values
    on every call. Returns the max over all parameter entries of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    params = list(params)
    loss = builder()
    if not np.all(np.isfinite(loss.data)):
        raise NumericalFailure("loss is non-finite at the evaluation point")
    gmap = backward(loss)
    analytic = [gmap.of(p).data.reshape(-1) for p in params]
    del loss, gmap  # frees the graph before the perturbed rebuilds

    max_err = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = builder().item()
                flat[i] = orig - eps
                lm = builder().item()
                flat[i] = orig
                if not (np.isfinite(lp) and np.isfinite(lm)):
                    raise NumericalFailure("loss is non-finite at a perturbed point")
                num = (lp - lm) / (2.0 * eps)
                err = abs(ana[i] - num) / max(1.0, abs(ana[i]), abs(num))
                if err > max_err:
                    max_err = err
    return max_err


# ---------------------------------------------------------------------------
# binary framing, shared by the tensor, clip and checkpoint formats: every
# field is little-endian, and every read checks that the field fits in buf
# first, so a short buffer raises FormatError, never struct.error.


def read_struct(buf, off: int, fmt: str, what: str) -> tuple[tuple, int]:
    """The little-endian struct fmt unpacked at off, and the offset past it."""
    end = off + struct.calcsize("<" + fmt)
    if len(buf) < end:
        raise FormatError(f"truncated {what}")
    return struct.unpack_from("<" + fmt, buf, off), end


def pack_struct(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def read_magic(buf, off: int, magic: bytes, version: int, what: str) -> int:
    """Check the magic and u16 version at off; returns the offset past them."""
    if buf[off:off + len(magic)] != magic:
        raise FormatError(f"bad {what} magic")
    (got,), off = read_struct(buf, off + len(magic), "H", f"{what} header")
    if got != version:
        raise FormatError(f"unsupported {what} version {got}")
    return off


def pack_magic(magic: bytes, version: int) -> bytes:
    return magic + pack_struct("H", version)


def read_text(buf, off: int, what: str, fmt: str = "H") -> tuple[str, int]:
    """UTF-8 text after a length of struct fmt (u16 or u32) at off, and the
    offset past it."""
    (n,), off = read_struct(buf, off, fmt, what)
    if len(buf) < off + n:
        raise FormatError(f"truncated {what}")
    return decode_utf8(buf[off:off + n], what), off + n


def pack_text(text: str, what: str, fmt: str = "H") -> bytes:
    raw = text.encode("utf-8")
    if len(raw) >= 1 << 8 * struct.calcsize("<" + fmt):
        raise FormatError(f"{what} too long")
    return pack_struct(fmt, len(raw)) + raw


# tensors: magic, version u16, dtype u8 (0=f32, 1=f64), rank u8, dims as
# u64, then raw little-endian values. castnet writes f64 and reads either
# into float64.

TENSOR_MAGIC = b"CASTTNSR"
TENSOR_VERSION = 1
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
# the longest header: magic, version, dtype tag, rank and 255 dims
TENSOR_HEADER_MAX = len(TENSOR_MAGIC) + 4 + 8 * 255


def tensor_to_bytes(t: Tensor) -> bytes:
    head = pack_magic(TENSOR_MAGIC, TENSOR_VERSION) + pack_struct(f"BB{t.ndim}Q", 1, t.ndim,
                                                                  *t.shape)
    return head + np.ascontiguousarray(t.data, dtype="<f8").tobytes()


def tensor_header(buf, offset: int = 0,
                  size: Optional[int] = None) -> tuple[np.dtype, tuple[int, ...], int, int]:
    """Parse and check the tensor header at offset; returns (little-endian
    dtype, dims, payload start, payload end). size is the length of the
    stream that buf begins (default len(buf)), so buf may be a prefix that
    holds only the header: the payload is checked to fit in size bytes."""
    size = len(buf) if size is None else size
    offset = read_magic(buf, offset, TENSOR_MAGIC, TENSOR_VERSION, "tensor")
    (tag, rank), offset = read_struct(buf, offset, "BB", "tensor header")
    if tag not in _TAG_DTYPES:
        raise FormatError(f"unknown dtype tag {tag}")
    if rank < 1:
        raise FormatError("tensor rank must be >= 1")
    dims, offset = read_struct(buf, offset, f"{rank}Q", "tensor dims")
    if any(d < 1 for d in dims):
        raise FormatError(f"invalid serialized dims {dims}")
    dt = _TAG_DTYPES[tag]
    count = 1
    for d in dims:  # Python ints: np.prod would wrap around at 2**64
        count *= d
    nbytes = count * dt.itemsize
    if size - offset < nbytes:
        raise FormatError(f"truncated tensor payload: dims {dims} need {nbytes} bytes, "
                          f"{size - offset} remain")
    return dt, dims, offset, offset + nbytes


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Parse one serialized tensor, f32 or f64, into a float64 tensor;
    returns (tensor, offset past it)."""
    dt, dims, start, end = tensor_header(buf, offset)
    data = np.frombuffer(buf, dtype=dt, count=(end - start) // dt.itemsize, offset=start)
    return Tensor(data.reshape(dims)), end
