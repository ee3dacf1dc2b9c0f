"""The corner head: localization over the search feature map.

It turns the map into two probability fields (top-left and bottom-right)
and reads each corner off with a soft argmax, so the box is a
differentiable expectation over positions.

A corner stack is four 3x3 conv and ReLU layers, then a 1x1 conv to one
channel.  STARK's stack puts a batch norm after each 3x3 conv; with frozen
identity statistics that norm is a per-channel scale, which the conv's
weight already gives, and a shift, which is the conv's bias, so each conv
carries its bias and no norm follows.  The last conv has no bias: the soft
argmax ignores a constant added to its map, so one could never move a
corner.

Coordinates are normalized to [0, 1] over the search crop; position (i, j)
of an h x w map sits at (j / (w-1), i / (h-1)).
"""

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def _axis_coords(n, dtype):
    # single-cell maps collapse to coordinate 0
    span = max(n - 1, 1)
    return (np.arange(n, dtype=dtype) / span).astype(dtype)


def _soft_argmax_batched(maps):
    """[B, h, w] score maps -> (x [B], y [B]) expectation coordinates.

    Softmax over all positions of each map, then x = sum p(i,j) * j/(w-1)
    and y = sum p(i,j) * i/(h-1).
    """
    b, h, w = maps.shape
    p = ad.softmax(ad.reshape(maps, (b, h * w)))
    p = ad.reshape(p, (b, h, w))
    xs = _axis_coords(w, maps.dtype)
    ys = _axis_coords(h, maps.dtype)
    x = ad.sum_(ad.mul(p, xs.reshape(1, 1, w)), axis=(1, 2))
    y = ad.sum_(ad.mul(p, ys.reshape(1, h, 1)), axis=(1, 2))
    return x, y


def _corner_stack(dim, init):
    chans = [dim, dim // 2, dim // 4, dim // 8, dim // 16]
    stack = [nn.Conv2d(chans[i], chans[i + 1], 3, 1, 0, init) for i in range(4)]
    w = init.he_normal((1, chans[4], 1, 1), chans[4])
    return stack + [Tensor(w, requires_grad=True)]


class CornerHead(nn.Module):
    """Two convolution stacks scoring top-left and bottom-right corners."""

    def __init__(self, dim, init):
        if dim % 16 != 0 or dim < 16:
            raise ConfigError(f"corner head needs dim divisible by 16, got {dim}")
        self.dim = dim
        self.tl = _corner_stack(dim, init)
        self.br = _corner_stack(dim, init)

    def _score_map(self, stack, x):
        *layers, w_out = stack
        for conv in layers:
            # replicate padding so a featureless (constant) map stays
            # constant and scores every position equally
            x = ad.relu(conv(ad.edge_pad(x)))
        x = ad.conv2d(x, w_out)
        b, _, h, w = x.shape
        return ad.reshape(x, (b, h, w))

    def __call__(self, feat):
        """[B, dim, h, w] -> [B, 4] corner boxes in [0, 1] coordinates.

        If the two expected corners come out inverted on an axis they are
        swapped so x0 <= x1 and y0 <= y1 always hold.
        """
        if feat.ndim != 4 or feat.shape[1] != self.dim:
            raise ShapeError(
                f"expected [B, {self.dim}, h, w] features, got {feat.shape}"
            )
        ax, ay = _soft_argmax_batched(self._score_map(self.tl, feat))
        bx, by = _soft_argmax_batched(self._score_map(self.br, feat))
        x0, x1 = ad.minimum(ax, bx), ad.maximum(ax, bx)
        y0, y1 = ad.minimum(ay, by), ad.maximum(ay, by)
        cols = [ad.reshape(v, (-1, 1)) for v in (x0, y0, x1, y1)]
        return ad.concat(cols, axis=1)
