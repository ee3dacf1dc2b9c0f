"""Tape-based reverse-mode autodiff over dense numpy arrays.

A ``Tensor`` wraps one ndarray plus an optional gradient accumulator.  Every
operation is a function of this module (``add(a, b)``, ``linear(x, w)``,
``sum_(x)``): a Tensor has no arithmetic operators and no op methods, and
indexing it is the ``take`` op.  While a ``Tape`` is active, every operation
appends a record holding the tensors it touched and a closure computing its
vector-Jacobian product.  ``Tape.backward`` walks the records in reverse
execution order (a valid reverse topological order, since records are
appended as operations run) and accumulates, never overwrites, gradient
contributions.  A tape is backpropagated once: each record, with the arrays
its closure saved, is dropped as soon as its vector-Jacobian product has run,
and so is the gradient of its output, so the backward pass holds no more
than the forward did.  Only the loss's seed and the gradients of leaves
(tensors made with ``requires_grad=True``) remain.

Without an active tape all operations are plain numpy and build no graph,
which is the inference fast path.  Reductions run in numpy's fixed order, so
repeated runs on the same machine are bit-identical.

Float32 is the working precision; build inputs and parameters as float64 when
running finite-difference checks.

Each op carries a hand-written vector-Jacobian product; a composition gets
its gradient from the chain rule.  Add an op only where no composition of
existing ops gives the same bits forward and backward: a clamp is
``minimum(maximum(x, lo), hi)`` and a negation is ``mul(x, -1.0)``.  ``sub``,
``linear``'s bias, ``edge_pad`` and ``attention`` equal compositions too, and
stay fused for the ops or memory they save on hot paths.
"""

import itertools
import threading

import numpy as np
from scipy import special

from .errors import ConfigError, ShapeError, UsageError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_NORM_EPS = 1e-5  # variance floor of layer_norm


class _ThreadTapes(threading.local):
    """Per-thread stack of active tapes, created empty on each thread."""

    def __init__(self):
        self.stack = []


_tls = _ThreadTapes()


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager; tapes nest, and independent tapes on different
    threads never interact (the active-tape stack is thread-local).
    """

    def __init__(self):
        self._entries = []
        self._consumed = False

    def __enter__(self):
        _tls.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.stack.pop()
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, name, out, inputs, vjp):
        self._entries.append((name, out, inputs, vjp))

    def backward(self, loss):
        """Populate ``.grad`` of every leaf reachable from ``loss``.

        Consumes the tape: records are popped and freed as their
        vector-Jacobian products run, and each intermediate output's
        ``.grad`` is reset to None once used, since every consumer of that
        output was recorded after it and has already been processed.  The
        loss keeps its seed gradient.  A second call raises UsageError.
        """
        if loss.size != 1:
            raise UsageError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        if self._consumed:
            raise UsageError("backward was already run on this tape")
        self._consumed = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        entries = self._entries
        while entries:
            name, out, inputs, vjp = entries.pop()
            g = out.grad
            if g is None:
                continue
            grads = vjp(g)
            vjp = g = None  # free the closure's saved arrays before accumulating
            if out is not loss:
                out.grad = None
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
            grads = gi = None


class Tensor:
    """Dense N-d array, optionally participating in gradient recording.

    Arithmetic goes through this module's op functions, not operators;
    ``t[idx]`` is ``take(t, idx)``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x):
    """Wrap scalars/arrays as a constant Tensor; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _coerce_pair(a, b):
    """Make both operands Tensors; bare Python scalars adopt the other
    operand's float width so mixing in a constant never widens the result."""
    if isinstance(a, Tensor) and not isinstance(b, (Tensor, np.ndarray)):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, (Tensor, np.ndarray)):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _record(name, out, inputs, vjp):
    stack = _tls.stack
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1].record(name, out, inputs, vjp)
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


def _binary(name, a, b, y, grad_a, grad_b):
    """Record the broadcasting binary op ``name`` with output ``y``.
    ``grad_a(g)`` and ``grad_b(g)`` give each operand's gradient at the
    output's shape; each runs, and has its broadcast axes summed, only
    for an operand that needs a gradient."""
    def vjp(g):
        return (
            _unbroadcast(grad_a(g), a.data.shape) if a.requires_grad else None,
            _unbroadcast(grad_b(g), b.data.shape) if b.requires_grad else None,
        )

    return _record(name, Tensor(y), (a, b), vjp)


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b):
    a, b = _coerce_pair(a, b)
    return _binary("add", a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _coerce_pair(a, b)
    return _binary("sub", a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _coerce_pair(a, b)
    return _binary("mul", a, b, a.data * b.data,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a, b):
    a, b = _coerce_pair(a, b)
    return _binary("div", a, b, a.data / b.data, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data))


def maximum(a, b):
    """Elementwise max.  ``a`` takes the whole gradient where ``a >= b``,
    ties included, and ``b`` takes it elsewhere, NaN included."""
    a, b = _coerce_pair(a, b)
    return _binary("maximum", a, b, np.maximum(a.data, b.data),
                   lambda g: g * (a.data >= b.data),
                   lambda g: g * ~(a.data >= b.data))


def minimum(a, b):
    """Elementwise min.  ``a`` takes the whole gradient where ``a <= b``,
    ties included, and ``b`` takes it elsewhere, NaN included."""
    a, b = _coerce_pair(a, b)
    return _binary("minimum", a, b, np.minimum(a.data, b.data),
                   lambda g: g * (a.data <= b.data),
                   lambda g: g * ~(a.data <= b.data))


# ---------------------------------------------------------------------------
# elementwise unary ops


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data))
    return _record("log", out, (x,), lambda g: (g / x.data,))


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


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(x, axis=None):
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * x.ndim), x.data.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % x.ndim for a in axes)
        shape = tuple(1 if i in axes else n for i, n in enumerate(x.data.shape))
        return (np.broadcast_to(g.reshape(shape), x.data.shape).copy(),)

    return _record("sum", out, (x,), vjp)


def mean_(x):
    """Mean over every element."""
    x = as_tensor(x)
    return mul(sum_(x), 1.0 / float(x.size))


def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    orig = x.data.shape
    return _record("reshape", out, (x,), lambda g: (g.reshape(orig),))


def transpose(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    out = Tensor(x.data.transpose(axes))

    def vjp(g):
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i  # a negative axis counts from the end, as in numpy
        return (g.transpose(inv),)

    return _record("transpose", out, (x,), vjp)


def concat(tensors, axis):
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


def linear(x, w, b=None):
    """Affine map x @ w (+ b) as one op; w has shape [in, out].  Without
    a bias it is the batched matrix product over the last two axes; a bias
    adds into the product in place, with ``add``'s gradient."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError(
            f"linear needs >=2-d operands, got {x.shape} and {w.shape}"
        )
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear inner extents differ: {x.shape} vs {w.shape}")
    y = np.matmul(x.data, w.data)
    inputs = (x, w)
    if b is not None:
        b = as_tensor(b)
        inputs += (b,)
        if b.data.dtype == y.dtype:
            y += b.data
        else:
            y = y + b.data
    out = Tensor(y)

    def vjp(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = _unbroadcast(np.matmul(g, np.swapaxes(w.data, -1, -2)), x.data.shape)
        if w.requires_grad:
            gw = _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), g), w.data.shape)
        if b is not None and b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
        return (gx, gw) if b is None else (gx, gw, gb)

    return _record("linear", out, inputs, vjp)


# ---------------------------------------------------------------------------
# normalization and softmax


def softmax(x):
    """Max-subtracted softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", out, (x,), vjp)


# Query rows per block of ``attention``'s forward, taped or not: the logits
# of a block are all that is alive at once, which bounds the memory of the
# large presets' stage-1 attention (6400 queries by 2112 keys on mixformer).
# The op saves no weights; its vjp recomputes them one group at a time.
_ATTENTION_ROWS = 512


def _attention_weights(q, k, scale):
    """softmax(q @ kᵀ · scale) over the last axis, as a new array.

    The scale, the max shift, the exponential and the division run in place,
    in the order of the former product, mul and softmax ops, so the weights
    carry the same bits.
    """
    w = np.matmul(q, np.swapaxes(k, -1, -2))
    w *= np.asarray(scale, dtype=w.dtype)
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def _split_heads(a, heads):
    """View [..., H, L, C/H] of token rows a [..., L, C]: head h holds
    columns [h*C/H, (h+1)*C/H)."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -2, -3)


def _merge_heads(a):
    """Token rows [..., L, H*d] of head-split a [..., H, L, d]; a view
    where the layout allows one, else a C-order copy."""
    a = np.swapaxes(a, -2, -3)
    return a.reshape(a.shape[:-2] + (-1,))


def _query_groups(lq, lk, split):
    """(query rows, key count) of each query group of ``attention``."""
    if split is None:
        return [(slice(0, lq), lk)]
    lt, kt = split
    return [(slice(0, lt), kt), (slice(lt, lq), lk)]


def _group_grad(parts, shape, heads, groups, rows):
    """One input's gradient in token layout from its head-split parts, one
    per query group of ``attention``, or None without parts.

    A lone part is merged as it is.  Several fill a C-order array: query
    rows (``rows``) take their group's part; keys and values take the last
    group's, which attends every key, and add the first group's on its keys.
    """
    if not parts:
        return None
    if len(parts) == 1:
        return _merge_heads(parts[0])
    full = np.empty(shape, dtype=parts[0].dtype)
    fh = _split_heads(full, heads)
    if rows:
        for (group_rows, _), part in zip(groups, parts):
            fh[..., group_rows, :] = part
    else:
        fh[...] = parts[1]
        fh[..., : groups[0][1], :] += parts[0]
    return full


def attention(q, k, v, heads, split=None):
    """Multi-head attention over token rows: softmax(q @ kᵀ / sqrt(d)) @ v
    per head, one op.

    q is [..., Lq, C], k [..., Lk, C] and v [..., Lk, Cv] with equal leading
    axes, and the output [..., Lq, Cv] is in the same token layout.  Head h
    reads columns [h*C/H, (h+1)*C/H) of q and k, and of v likewise, and d is
    C/H.  The heads are split and merged as views inside the op.

    With ``split=(lt, kt)`` the query rows form two groups: the first lt rows
    attend only the first kt keys, and the others attend every key.  Each
    group has its own weights and products, so the op equals splitting the
    heads, running the chain linear(q, kᵀ), mul by 1/sqrt(d), softmax and
    linear by v once per group on its rows and keys, and merging the heads,
    bit for bit, forward and backward.  The gradients of several groups are
    C-order arrays, and a key's gradient adds the groups' contributions.
    The forward runs each group's rows in blocks of ``_ATTENTION_ROWS``;
    every block sees all of its group's keys, so a row's weights are the
    same as in one block.  The op saves no weights: the vjp recomputes each
    group's weights in one piece, so its key and value sums keep their
    order and bits.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim != q.ndim or v.ndim != q.ndim:
        raise ShapeError(
            f"attention needs >=2-d q, k, v of one rank, got {q.shape}, "
            f"{k.shape} and {v.shape}"
        )
    if (q.shape[:-2] != k.shape[:-2] or k.shape[:-1] != v.shape[:-1]
            or q.shape[-1] != k.shape[-1]):
        raise ShapeError(
            f"attention extents differ: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ShapeError(
            f"{heads} heads do not divide the widths of q {q.shape} and v {v.shape}"
        )
    lq, lk = q.shape[-2], k.shape[-2]
    if split is not None and not (0 < split[0] < lq and 0 < split[1] <= lk):
        raise ShapeError(
            f"split {split} must leave query rows on both sides of {lq} and "
            f"select 1 to {lk} keys"
        )
    inputs = (q, k, v)
    groups = _query_groups(lq, lk, split)
    qh, kh, vh = (_split_heads(t.data, heads) for t in inputs)
    scale = 1.0 / float(np.sqrt(qh.shape[-1]))
    y = np.empty(q.shape[:-1] + v.shape[-1:], dtype=np.result_type(q.data, k.data, v.data))
    yh = _split_heads(y, heads)
    for rows, keys in groups:
        kg, vg = kh[..., :keys, :], vh[..., :keys, :]
        for r in range(rows.start, rows.stop, _ATTENTION_ROWS):
            block = slice(r, min(r + _ATTENTION_ROWS, rows.stop))
            yh[..., block, :] = np.matmul(
                _attention_weights(qh[..., block, :], kg, scale), vg
            )
    out = Tensor(y)

    def vjp(g):
        gh = _split_heads(g, heads)
        gq, gk, gv = [], [], []  # head-split gradients, one per group
        for rows, keys in groups:
            qg, kg, vg = qh[..., rows, :], kh[..., :keys, :], vh[..., :keys, :]
            w = _attention_weights(qg, kg, scale)
            gg = np.ascontiguousarray(gh[..., rows, :])
            if v.requires_grad:
                gv.append(np.matmul(np.swapaxes(w, -1, -2), gg))
            if q.requires_grad or k.requires_grad:
                gw = np.matmul(gg, np.swapaxes(vg, -1, -2))
                gw -= np.add.reduce(gw * w, axis=-1, keepdims=True)
                gw *= w
                gw *= np.asarray(scale, dtype=gw.dtype)
                if q.requires_grad:
                    gq.append(np.matmul(gw, kg))
                if k.requires_grad:
                    gk.append(np.swapaxes(np.matmul(np.swapaxes(qg, -1, -2), gw), -1, -2))
        return (
            _group_grad(gq, q.shape, heads, groups, rows=True),
            _group_grad(gk, k.shape, heads, groups, rows=False),
            _group_grad(gv, v.shape, heads, groups, rows=False),
        )

    return _record("attention", out, inputs, vjp)


def attention_weights(q, k, heads, split):
    """Head-split softmax matrices of ``attention(q, k, v, heads, split)``,
    one [..., H, rows, keys] array per query group; no tape records them."""
    qh, kh = (_split_heads(as_tensor(t).data, heads) for t in (q, k))
    scale = 1.0 / float(np.sqrt(qh.shape[-1]))
    return tuple(
        _attention_weights(qh[..., rows, :], kh[..., :keys, :], scale)
        for rows, keys in _query_groups(qh.shape[-2], kh.shape[-2], split)
    )


def layer_norm(x, gain, bias):
    """Normalize along the last axis then scale/shift; gain/bias broadcast."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    # np.add.reduce / n equals ndarray.mean bit for bit, without its wrapper
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = xc * inv
    # C order whatever the input's layout, so a later reduction along the
    # rows sums in one order whether they came from a strided view or a concat
    out = Tensor(np.ascontiguousarray(xhat * gain.data + bias.data))

    def vjp(g):
        gxh = g * gain.data
        m1 = np.add.reduce(gxh, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(gxh * xhat, axis=-1, keepdims=True) / n
        gx = inv * (gxh - m1 - xhat * m2)
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return gx.astype(x.dtype, copy=False), ggain, gbias

    return _record("layer_norm", out, (x, gain, bias), vjp)


def edge_pad(x):
    """Replicate the border cells of the last two axes, one cell each side.

    Equals ``np.pad(x, ((0, 0),) * (x.ndim - 2) + ((1, 1), (1, 1)),
    mode="edge")``, built by slice assignment.  The gradient folds the
    border rows back first, then the border columns.
    """
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"edge_pad needs at least 2 axes, got shape {x.shape}")
    h, w = x.shape[-2:]
    y = np.empty(x.shape[:-2] + (h + 2, w + 2), dtype=x.dtype)
    y[..., 1:-1, 1:-1] = x.data
    y[..., 1:-1, 0] = x.data[..., 0]
    y[..., 1:-1, -1] = x.data[..., -1]
    y[..., 0, :] = y[..., 1, :]
    y[..., -1, :] = y[..., -2, :]
    out = Tensor(y)

    def vjp(g):
        rows = g[..., 1:-1, :].copy()
        rows[..., -1, :] += g[..., -1, :]
        rows[..., 0, :] += g[..., 0, :]
        gx = rows[..., 1:-1].copy()
        gx[..., -1] += rows[..., -1]
        gx[..., 0] += rows[..., 0]
        return (gx,)

    return _record("edge_pad", out, (x,), vjp)


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
        gx = gw = None
        if w.requires_grad:
            gw = np.matmul(
                gflat.reshape(-1, cout).T, cols.reshape(-1, cols.shape[-1])
            ).reshape(w.shape)
        if x.requires_grad:
            gcols = np.matmul(gflat, wm)
            gwin = gcols.reshape(bsz, out_h, out_w, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
            gx = _scatter_windows(gwin, padded_shape, kh, kw, stride, pad, out_h, out_w)
        if b is None:
            return gx, gw
        return gx, gw, gflat.sum(axis=(0, 1))

    return _record("conv2d", out, inputs, vjp)


# Outputs of at most this many elements (B * H' * W' * C) take the tap-major
# forward and weight gradient of ``depthwise_conv2d``.  On small maps the
# per-tap loop's fixed cost (9 slices, 17 ufunc calls) dominates and one
# product over all taps wins; above this size the product's 9x temporary
# falls out of cache and costs more than the loop saves.  Measured on one
# core, forward plus gradient: 100 against 141 us at 1024 elements, 263
# against 277 us at 8192, but 1341 against 569 us at 16384 (the tiny
# preset's stage-1 search maps at B=4).
_TAP_MAJOR_MAX = 8192


def _tap_window(buf, kh, kw, stride, out_h, out_w):
    """View [kh, kw, B, out_h, out_w, C] of the C-contiguous channels-last
    ``buf`` [B, H, W, C]: entry [i, j] is what kernel tap (i, j) reads for
    every output position."""
    b, _, _, c = buf.shape
    s0, s1, s2, s3 = buf.strides
    return np.ndarray(
        (kh, kw, b, out_h, out_w, c), buf.dtype, buf, 0,
        (s1, s2, s0, s1 * stride, s2 * stride, s3),
    )


def depthwise_conv2d(x, grids, w, *, stride, pad):
    """Per-channel 2-D convolution over the region grids of token rows.

    x is [B, L, C] and w is [C, kh, kw].  ``grids`` lists the regions in row
    order as (n, h, w): n maps of h x w tokens each, row-major with channels
    last, the first starting at row 0; rows after the last region are not
    read.  The output [B, L', C] holds each region's output maps, row-major,
    in the same order, so a block's q, k or v projection of every region is
    this one op, with no reshape or concat around it.

    Each region is zero-padded into one buffer of maps (or copied once,
    unpadded), and one view of that buffer holds, per kernel tap, what the
    tap reads at every output position.  A region's output adds the taps in
    row-major kernel order, each its view times the tap's per-channel
    weights.  There is no bias: in each projection that uses the op, a later
    bias covers one or softmax ignores it (see ``attention``).  Two forward
    paths give the same bits:

    - small region outputs (at most ``_TAP_MAJOR_MAX`` elements) take one
      product of the whole window with the kernel and one reduction over the
      tap axis, which adds the taps one after another in that same order;
    - large ones loop over the taps, accumulating into the output, since
      the tap-major product's 9x temporary would cost more than it saves.

    The gradient walks the same views region by region: each tap's weight
    gradient reduces g times its view over the region's positions (on small
    outputs one product and one batched ones-row matmul for all taps), the
    input's accumulates g times each tap's weights, tap by tap, and the
    kernel gradient adds the regions' sums.  So the op equals one
    convolution per region's maps followed by a concat, bit for bit.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3:
        raise ShapeError(
            f"depthwise_conv2d needs [B, L, C] token rows, got shape {x.shape}"
        )
    bsz, rows, c = x.shape
    c_w, kh, kw = w.shape
    if c != c_w:
        raise ShapeError(
            f"depthwise_conv2d channel mismatch: input has {c}, kernel has {c_w}"
        )
    regions = []  # (input row, output row, n, h, w, out_h, out_w) per grid
    start = o_start = 0
    for n, h, wd in grids:
        out_h = _conv_out_extent(h, kh, stride, pad)
        out_w = _conv_out_extent(wd, kw, stride, pad)
        regions.append((start, o_start, n, h, wd, out_h, out_w))
        start += n * h * wd
        o_start += n * out_h * out_w
    if not regions or start > rows:
        raise ShapeError(
            f"depthwise_conv2d grids {list(grids)} need 1 to {rows} rows, got {start}"
        )
    taps = np.ascontiguousarray(w.data.reshape(c, kh * kw).T)
    n_taps = kh * kw
    views, parts = [], []
    for r0, _, n, h, wd, out_h, out_w in regions:
        maps = x.data[:, r0 : r0 + n * h * wd].reshape(bsz, n, h, wd, c)
        if pad:
            buf = np.zeros((bsz, n, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype)
            buf[:, :, pad : pad + h, pad : pad + wd] = maps
        else:
            buf = np.ascontiguousarray(maps)
        buf = buf.reshape((bsz * n,) + buf.shape[2:])
        win = _tap_window(buf, kh, kw, stride, out_h, out_w)
        win.flags.writeable = False
        out_shape = (bsz * n, out_h, out_w, c)
        tap_major = bsz * n * out_h * out_w * c <= _TAP_MAJOR_MAX
        if tap_major:
            prod = np.multiply(win, taps.reshape(kh, kw, 1, 1, 1, c))
            y = np.add.reduce(prod.reshape((n_taps,) + out_shape), axis=0)
        else:
            y = win[0, 0] * taps[0]
            tmp = np.empty_like(y)
            for t in range(1, n_taps):
                y += np.multiply(win[divmod(t, kw)], taps[t], out=tmp)
        views.append((buf.shape, win, tap_major))
        parts.append(y.reshape(bsz, -1, c))
    out = Tensor(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))

    def vjp(g):
        gx = np.zeros(x.shape, dtype=g.dtype) if x.requires_grad else None
        gw = None
        for (r0, o0, n, h, wd, out_h, out_w), (buf_shape, win, tap_major) in zip(
                regions, views):
            m = n * out_h * out_w
            gr = np.ascontiguousarray(g[:, o0 : o0 + m]).reshape(bsz * n, out_h, out_w, c)
            prod = np.empty(gr.shape, dtype=g.dtype)
            if w.requires_grad:
                # sums over every position as one row-vector product, which is
                # far cheaper than a reduction down the long axis of [N, C]
                ones = np.ones((1, bsz * m), dtype=g.dtype)
                if tap_major:
                    gprod = np.multiply(win, gr).reshape(n_taps, -1, c)
                    gw_r = np.matmul(ones, gprod).reshape(n_taps, c)
                else:
                    gw_r = np.empty((n_taps, c), dtype=g.dtype)
                    for t in range(n_taps):
                        np.multiply(gr, win[divmod(t, kw)], out=prod)
                        np.matmul(ones, prod.reshape(-1, c), out=gw_r[t : t + 1])
                gw = gw_r if gw is None else gw + gw_r
            if x.requires_grad:
                gbuf = np.zeros(buf_shape, dtype=g.dtype)
                gwin = _tap_window(gbuf, kh, kw, stride, out_h, out_w)
                for t in range(n_taps):
                    gwin[divmod(t, kw)] += np.multiply(gr, taps[t], out=prod)
                gbuf = gbuf.reshape((bsz, n) + buf_shape[1:])
                gx[:, r0 : r0 + n * h * wd].reshape(bsz, n, h, wd, c)[...] = (
                    gbuf[:, :, pad : pad + h, pad : pad + wd]
                )
        if gw is not None:
            gw = np.ascontiguousarray(gw.T).reshape(w.shape)
        return gx, gw

    return _record("depthwise_conv2d", out, (x, w), vjp)
