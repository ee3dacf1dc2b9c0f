"""Tape-based reverse-mode autodiff over dense numpy arrays.

A ``Tensor`` wraps one ndarray plus an optional gradient accumulator.  While a
``Tape`` is active, every operation appends a record holding the tensors it
touched and a closure computing its vector-Jacobian product.  ``Tape.backward``
walks the records in reverse execution order (a valid reverse topological
order, since records are appended as operations run) and accumulates, never
overwrites, gradient contributions.

Without an active tape all operations are plain numpy and build no graph,
which is the inference fast path.  Reductions run in numpy's fixed order, so
repeated runs on the same machine are bit-identical.

Float32 is the working precision; build inputs and parameters as float64 when
running finite-difference checks.
"""

import itertools
import threading

import numpy as np
from scipy import special

from .errors import ConfigError, GradCheckError, ShapeError, UsageError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager; tapes nest, and independent tapes on different
    threads never interact (the active-tape stack is thread-local).
    """

    def __init__(self, check_finite=False):
        self._entries = []
        self.check_finite = check_finite

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    @staticmethod
    def active():
        stack = _tape_stack()
        return stack[-1] if stack else None

    def __len__(self):
        return len(self._entries)

    def record(self, name, out, inputs, vjp):
        if self.check_finite and not np.all(np.isfinite(out.data)):
            raise GradCheckError(f"non-finite values produced by op '{name}'")
        self._entries.append((name, out, inputs, vjp))

    def backward(self, loss):
        """Populate ``.grad`` of every tracked tensor reachable from ``loss``."""
        if loss.size != 1:
            raise UsageError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        for name, out, inputs, vjp in reversed(self._entries):
            g = out.grad
            if g is None:
                continue
            grads = vjp(g)
            for t, gi in zip(inputs, grads):
                if gi is None or not t.requires_grad:
                    continue
                if gi.shape != t.data.shape:
                    raise ShapeError(
                        f"op '{name}' produced gradient of shape {gi.shape} "
                        f"for input of shape {t.data.shape}"
                    )
                if t.grad is None:
                    t.grad = np.array(gi, dtype=t.data.dtype, copy=True)
                else:
                    t.grad += gi


def backward(loss):
    """Run the active tape backward from ``loss``."""
    tape = Tape.active()
    if tape is None:
        raise UsageError("backward called with no active tape")
    tape.backward(loss)


class Tensor:
    """Dense N-d array, optionally participating in gradient recording."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def as_tensor(x, dtype=None):
    """Wrap scalars/arrays as a constant Tensor; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x), dtype=dtype)


def _coerce_pair(a, b):
    """Make both operands Tensors; bare Python scalars adopt the other
    operand's float width so mixing in a constant never widens the result."""
    if isinstance(a, Tensor) and not isinstance(b, (Tensor, np.ndarray)):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, (Tensor, np.ndarray)):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _record(name, out, inputs, vjp):
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(name, out, inputs, vjp)
    return out


def _unbroadcast(grad, shape):
    """Sum the broadcast axes of ``grad`` down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(a.data + b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record("add", out, (a, b), vjp)


def sub(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(a.data - b.data)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record("sub", out, (a, b), vjp)


def mul(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _record("mul", out, (a, b), vjp)


def div(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(a.data / b.data)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _record("div", out, (a, b), vjp)


def maximum(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(np.maximum(a.data, b.data))

    def vjp(g):
        mask = a.data >= b.data
        return (
            _unbroadcast(g * mask, a.data.shape),
            _unbroadcast(g * ~mask, b.data.shape),
        )

    return _record("maximum", out, (a, b), vjp)


def minimum(a, b):
    a, b = _coerce_pair(a, b)
    out = Tensor(np.minimum(a.data, b.data))

    def vjp(g):
        mask = a.data <= b.data
        return (
            _unbroadcast(g * mask, a.data.shape),
            _unbroadcast(g * ~mask, b.data.shape),
        )

    return _record("minimum", out, (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise unary ops


def neg(x):
    x = as_tensor(x)
    out = Tensor(-x.data)
    return _record("neg", out, (x,), lambda g: (-g,))


def exp(x):
    x = as_tensor(x)
    out = Tensor(np.exp(x.data))
    return _record("exp", out, (x,), lambda g: (g * out.data,))


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data))
    return _record("log", out, (x,), lambda g: (g / x.data,))


def sqrt(x):
    x = as_tensor(x)
    out = Tensor(np.sqrt(x.data))
    return _record("sqrt", out, (x,), lambda g: (g * (0.5 / out.data),))


def abs_(x):
    x = as_tensor(x)
    out = Tensor(np.abs(x.data))
    return _record("abs", out, (x,), lambda g: (g * np.sign(x.data),))


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0))
    return _record("relu", out, (x,), lambda g: (g * (x.data > 0),))


def sigmoid(x):
    x = as_tensor(x)
    y = special.expit(x.data)
    out = Tensor(y)
    return _record("sigmoid", out, (x,), lambda g: (g * y * (1.0 - y),))


def gelu(x):
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = as_tensor(x)
    phi = 0.5 * (1.0 + special.erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * phi)

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi + x.data * pdf),)

    return _record("gelu", out, (x,), vjp)


def clamp(x, lo=None, hi=None):
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))

    def vjp(g):
        mask = np.ones_like(x.data, dtype=bool)
        if lo is not None:
            mask &= x.data >= lo
        if hi is not None:
            mask &= x.data <= hi
        return (g * mask,)

    return _record("clamp", out, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * x.ndim), x.data.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % x.ndim for a in axes)
        if not keepdims:
            shape = tuple(
                1 if i in axes else n for i, n in enumerate(x.data.shape)
            )
            g = g.reshape(shape)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _record("sum", out, (x,), vjp)


def mean_(x, axis=None, keepdims=False):
    x = as_tensor(x)
    count = x.size if axis is None else np.prod(
        [x.data.shape[a % x.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / float(count))


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    orig = x.data.shape
    return _record("reshape", out, (x,), lambda g: (g.reshape(orig),))


def transpose(x, axes=None):
    x = as_tensor(x)
    axes = tuple(axes) if axes else tuple(reversed(range(x.ndim)))
    out = Tensor(x.data.transpose(axes))

    def vjp(g):
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i  # a negative axis counts from the end, as in numpy
        return (g.transpose(inv),)

    return _record("transpose", out, (x,), vjp)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def vjp(g):
        splits = list(itertools.accumulate(t.data.shape[axis] for t in tensors[:-1]))
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record("concat", out, tuple(tensors), vjp)


def _has_int_array(idx):
    """Whether an index holds an integer array, whose entries may repeat."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return any(
        isinstance(p, (list, np.ndarray)) and np.asarray(p).dtype.kind in "iu"
        for p in parts
    )


def take(x, idx):
    """Slicing or indexing; gradient scatters back into a zero array.

    An integer-array index may name an element more than once, so its
    gradient accumulates with ``np.add.at``; basic slices assign directly.
    """
    x = as_tensor(x)
    out = Tensor(x.data[idx])

    def vjp(g):
        gx = np.zeros_like(x.data)
        if _has_int_array(idx):
            np.add.at(gx, idx, g)
        else:
            gx[idx] = g
        return (gx,)

    return _record("take", out, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Batched matrix product over the last two axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.shape} vs {b.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _record("matmul", out, (a, b), vjp)


def linear(x, w, b=None):
    """Affine map: x @ w (+ b); w has shape [in, out]."""
    y = matmul(x, w)
    if b is not None:
        y = add(y, b)
    return y


# ---------------------------------------------------------------------------
# normalization and softmax


def softmax(x, axis=-1):
    """Max-subtracted softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", out, (x,), vjp)


def layer_norm(x, gain, bias, axis=-1, eps=1e-5):
    """Normalize along ``axis`` then scale/shift; gain/bias broadcast."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=axis, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    # C order whatever the input's layout, so a later reduction along the
    # rows sums in one order whether they came from a strided view or a concat
    out = Tensor(np.ascontiguousarray(xhat * gain.data + bias.data))

    def vjp(g):
        gxh = g * gain.data
        m1 = gxh.mean(axis=axis, keepdims=True)
        m2 = (gxh * xhat).mean(axis=axis, keepdims=True)
        gx = inv * (gxh - m1 - xhat * m2)
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return gx.astype(x.dtype, copy=False), ggain, gbias

    return _record("layer_norm", out, (x, gain, bias), vjp)


def batch_norm_frozen(x, mean, var, gain, bias, eps=1e-5):
    """Inference-form batch norm over channel axis 1 of [B, C, H, W].

    ``mean``/``var`` are fixed statistics (plain arrays); only gain and bias
    are differentiable parameters.
    """
    if eps <= 0:
        raise ConfigError(f"batch_norm_frozen eps must be > 0, got {eps}")
    x = as_tensor(x)
    mean = np.asarray(mean, dtype=x.dtype)
    var = np.asarray(var, dtype=x.dtype)
    inv = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    shift = mean.reshape(1, -1, 1, 1)
    scale = mul(gain, Tensor(inv.reshape(-1)))
    xn = mul(sub(x, Tensor(shift)), reshape(scale, (1, -1, 1, 1)))
    return add(xn, reshape(as_tensor(bias), (1, -1, 1, 1)))


# ---------------------------------------------------------------------------
# convolutions


def _conv_out_extent(n, k, stride, pad):
    out = (n + 2 * pad - k) // stride + 1
    if out < 1:
        raise ConfigError(
            f"convolution output extent < 1 (input {n}, kernel {k}, "
            f"stride {stride}, pad {pad})"
        )
    return out


def _patches(x, kh, kw, stride, pad):
    """Read-only strided view of all kernel windows: [B, C, H', W', kh, kw].

    Padding zero-fills a buffer of the padded shape and assigns the input
    into its interior; an unpadded input is used as it is, or copied once
    if it is not C-contiguous.  One view over that buffer then steps
    ``stride`` pixels between windows and one pixel inside a window, so no
    window is copied until the caller gathers them.
    """
    b, c, h, w = x.shape
    if pad:
        h, w = h + 2 * pad, w + 2 * pad
        buf = np.zeros((b, c, h, w), dtype=x.dtype)
        buf[:, :, pad:-pad, pad:-pad] = x
    else:
        buf = np.ascontiguousarray(x)
    s0, s1, s2, s3 = buf.strides
    win = np.ndarray(
        (b, c, (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw),
        buf.dtype, buf, 0, (s0, s1, s2 * stride, s3 * stride, s2, s3),
    )
    win.flags.writeable = False
    return win, buf.shape


def _scatter_windows(gwin, padded_shape, kh, kw, stride, pad, out_h, out_w):
    """Inverse of ``_patches``: accumulate window grads into the input."""
    gx = np.zeros(padded_shape, dtype=gwin.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += gwin[
                :, :, :, :, i, j
            ]
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return np.ascontiguousarray(gx)


def conv2d(x, w, b=None, stride=1, pad=0):
    """Full 2-D convolution: x [B,Cin,H,W], w [Cout,Cin,kh,kw]."""
    x, w = as_tensor(x), as_tensor(w)
    bsz, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}"
        )
    out_h = _conv_out_extent(h, kh, stride, pad)
    out_w = _conv_out_extent(wd, kw, stride, pad)
    win, padded_shape = _patches(x.data, kh, kw, stride, pad)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, out_h * out_w, cin * kh * kw)
    wm = w.data.reshape(cout, cin * kh * kw)
    y = np.matmul(cols, wm.T)
    if b is not None:
        y = y + as_tensor(b).data
    out = Tensor(
        np.ascontiguousarray(y.reshape(bsz, out_h, out_w, cout).transpose(0, 3, 1, 2))
    )
    inputs = (x, w) if b is None else (x, w, as_tensor(b))

    def vjp(g):
        gflat = np.ascontiguousarray(
            g.transpose(0, 2, 3, 1).reshape(bsz, out_h * out_w, cout)
        )
        gw = np.matmul(
            gflat.reshape(-1, cout).T, cols.reshape(-1, cols.shape[-1])
        ).reshape(w.shape)
        gcols = np.matmul(gflat, wm)
        gwin = gcols.reshape(bsz, out_h, out_w, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        gx = _scatter_windows(gwin, padded_shape, kh, kw, stride, pad, out_h, out_w)
        if b is None:
            return gx, gw
        return gx, gw, gflat.sum(axis=(0, 1))

    return _record("conv2d", out, inputs, vjp)


def depthwise_conv2d(x, w, b=None, stride=1, pad=0):
    """Per-channel 2-D convolution: x [B,C,H,W] or [C,H,W], w [C,kh,kw]."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim == 3:
        y = depthwise_conv2d(
            reshape(x, (1,) + x.shape), w, b, stride=stride, pad=pad
        )
        return reshape(y, y.shape[1:])
    bsz, c, h, wd = x.shape
    c_w, kh, kw = w.shape
    if c != c_w:
        raise ShapeError(
            f"depthwise_conv2d channel mismatch: input has {c}, kernel has {c_w}"
        )
    out_h = _conv_out_extent(h, kh, stride, pad)
    out_w = _conv_out_extent(wd, kw, stride, pad)
    win, padded_shape = _patches(x.data, kh, kw, stride, pad)
    npos, ktap = out_h * out_w, kh * kw
    win4 = np.ascontiguousarray(win.reshape(bsz, c, npos, ktap))
    y = np.matmul(win4, w.data.reshape(c, ktap, 1))[..., 0].reshape(
        bsz, c, out_h, out_w
    )
    if b is not None:
        y = y + as_tensor(b).data.reshape(1, -1, 1, 1)
    out = Tensor(y)
    inputs = (x, w) if b is None else (x, w, as_tensor(b))

    def vjp(g):
        g4 = g.reshape(bsz, c, npos, 1)
        gw = np.matmul(g4.transpose(0, 1, 3, 2), win4).sum(axis=0).reshape(w.shape)
        gwin = np.matmul(g4, w.data.reshape(c, 1, ktap))
        gwin = gwin.reshape(bsz, c, out_h, out_w, kh, kw)
        gx = _scatter_windows(gwin, padded_shape, kh, kw, stride, pad, out_h, out_w)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record("depthwise_conv2d", out, inputs, vjp)


# ---------------------------------------------------------------------------
# gradient checking


class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric grads."""

    def __init__(self):
        self.errors = {}

    def add(self, name, err):
        self.errors[name] = err

    @property
    def max_error(self):
        return max(self.errors.values()) if self.errors else 0.0

    def ok(self, tol):
        return self.max_error < tol

    def __repr__(self):
        rows = ", ".join(f"{k}={v:.3g}" for k, v in self.errors.items())
        return f"GradCheckReport({rows})"


def _rel_err(a, n, atol):
    """Relative error, after discounting ``atol`` of absolute disagreement.

    Central differences carry rounding noise of order eps * |f| / h, so an
    element whose true gradient sits near that floor shows a large relative
    error no matter how exact the analytic value is.
    """
    diff = np.maximum(np.abs(a - n) - atol, 0.0)
    scale = np.maximum(np.abs(a), np.abs(n))
    return diff / np.where(scale < 1e-7, 1.0, scale)


def grad_check(f, params, h=1e-5, tol=1e-4):
    """Compare analytic gradients of scalar ``f()`` against central differences.

    ``params`` maps names to float64 leaf Tensors that ``f`` closes over.
    Returns a GradCheckReport; raises GradCheckError on non-finite values.
    """
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise GradCheckError(f"parameter '{name}' is non-finite")
        p.data = np.ascontiguousarray(p.data)
        p.zero_grad()
    with Tape(check_finite=True) as tape:
        loss = f()
        tape.backward(loss)
    eps = np.finfo(np.float64).eps
    atol = 32.0 * eps * max(abs(loss.item()), 1.0) / h
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            analytic[name] = np.zeros_like(p.data)
        else:
            if not np.all(np.isfinite(p.grad)):
                raise GradCheckError(f"gradient of '{name}' is non-finite")
            analytic[name] = p.grad.copy()
        p.zero_grad()

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f().item()
            flat[i] = orig - h
            lo = f().item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * h)
        if not np.all(np.isfinite(numeric)):
            raise GradCheckError(f"numeric gradient of '{name}' is non-finite")
        err = _rel_err(analytic[name].reshape(-1), numeric, atol)
        report.add(name, float(err.max()) if err.size else 0.0)
    return report
