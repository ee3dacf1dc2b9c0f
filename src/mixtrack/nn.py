"""Parameter containers and the layers the tracker is assembled from.

Modules hold their parameters as ``Tensor`` attributes and expose them
under stable hierarchical names such as ``stage2.block3.attn.wq.w`` for
checkpointing.  Name order follows attribute definition order, so a given
configuration always enumerates identically.  There are no buffers: every
array an output depends on is a parameter, and ``pack`` makes a model's
parameters views of one float32 arena in named order, so consecutive
parameters are one contiguous slice of it.  A module's ``init`` gives its
weights their initial values: ``Draw`` draws them, and a loaded model's
init gives only their shapes (see ``checkpoint.Stored``).
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


_STD = 0.02  # the standard deviation of ``Draw.trunc_normal``
MLP_RATIO = 4  # hidden width of each block's MLP, per token dimension


class Draw:
    """Initial values drawn from a numpy Generator: a new model's random
    init.  Modules take one of these as ``init``, or a ``checkpoint.Stored``
    with the same methods, and the model's ``init.pack`` fills its arena."""

    def __init__(self, rng):
        self.rng = rng

    def trunc_normal(self, shape):
        """Float32 normal draw clipped to two standard deviations."""
        v = self.rng.normal(0.0, _STD, size=shape)
        return np.clip(v, -2.0 * _STD, 2.0 * _STD).astype(np.float32)

    def he_normal(self, shape, fan_in):
        v = self.rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        return v.astype(np.float32)

    def depthwise_kernel(self, dim):
        """Per-channel 3x3 kernel [dim, 3, 3] whose center tap starts at
        one, so a projection begins as (sub)sampling and learns local mixing
        from there; no norm layer sits between it and the linear projection
        that follows."""
        k = self.trunc_normal((dim, 3, 3))
        k[:, 1, 1] += 1.0
        return k

    def pack(self, named):
        """The arena of a new model: its drawn values, copied once."""
        tensors = list(named.values())
        return pack(tensors, [t.data for t in tensors])


def pack(tensors, values):
    """Copy ``values``, one array per tensor in order, into one new float32
    buffer, rebind each tensor's ``data`` to its view of it, and return the
    buffer."""
    arena = np.empty(sum(t.data.size for t in tensors), dtype=np.float32)
    offset = 0
    for t, value in zip(tensors, values, strict=True):
        view = arena[offset:offset + t.data.size].reshape(t.data.shape)
        view[...] = value
        t.data = view
        offset += view.size
    return arena


class Module:
    """Base class: walks attributes to enumerate parameters."""

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Tensor, Module)):
                        yield f"{name}{i}", item

    def named_params(self, prefix=""):
        out = {}
        for name, value in self._children():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                out[full] = value
            else:
                out.update(value.named_params(prefix=f"{full}."))
        return out


class Linear(Module):
    """Affine layer; weight stored as [in, out]."""

    def __init__(self, d_in, d_out, init):
        self.w = Tensor(init.trunc_normal((d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    """Layer norm over the last axis."""

    def __init__(self, dim):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return ad.layer_norm(x, self.gain, self.bias)


class Conv2d(Module):
    """2-D convolution with a per-channel bias.  The bias is live in both
    users: the patch embedding feeds a layer norm over each token's
    channels, which keeps a per-channel offset, and each 3x3 corner-head
    conv feeds a ReLU, whose cut a per-channel offset moves."""

    def __init__(self, c_in, c_out, kernel, stride, pad, init):
        fan_in = c_in * kernel * kernel
        self.w = Tensor(
            init.he_normal((c_out, c_in, kernel, kernel), fan_in),
            requires_grad=True,
        )
        self.b = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad)


class Mlp(Module):
    """Two-layer feed-forward block with GELU, ``MLP_RATIO`` times wider
    inside."""

    def __init__(self, dim, init):
        self.fc1 = Linear(dim, dim * MLP_RATIO, init)
        self.fc2 = Linear(dim * MLP_RATIO, dim, init)

    def __call__(self, x):
        return self.fc2(ad.gelu(self.fc1(x)))
