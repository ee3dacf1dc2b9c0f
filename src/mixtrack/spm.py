"""Confidence estimation for a predicted box.

A learnable score token cross-attends ROI-pooled search features under the
predicted box, then the stage-3 tokens of the initial template, and a small
MLP squashes the result into (0, 1).  The module never sees online template
tokens, so updating them cannot move the score for a fixed search map.
"""

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor, as_tensor
from .errors import ShapeError

_ROI_GRID = 4  # the score head pools a 4x4 grid of tokens under the box


def _axis_weights(lo, hi, extent):
    """Per-sample (index, weight) rows for one axis of the ROI grid.

    Sample points span [lo, hi] inclusive in normalized coordinates; cell
    index space runs 0..extent-1 with coordinate u mapping to u*(extent-1).
    A degenerate axis (hi <= lo) snaps every sample to the nearest cell.
    """
    span = extent - 1
    rows = np.zeros((_ROI_GRID, extent), dtype=np.float64)
    if hi <= lo:
        j = int(round(min(max(lo, 0.0), 1.0) * span))
        rows[:, j] = 1.0
        return rows
    for c in range(_ROI_GRID):
        u = lo + (c * (hi - lo)) / (_ROI_GRID - 1)
        pos = u * span
        j0 = int(np.floor(pos))
        j0 = min(max(j0, 0), span)
        j1 = min(j0 + 1, span)
        frac = pos - j0
        rows[c, j0] += 1.0 - frac
        rows[c, j1] += frac
    return rows


def roi_tokens(search_feat, box):
    """Bilinear ROI pooling of [C, h, w] features onto the 4x4 ROI grid.

    ``box`` is plain-float corners in [0, 1] over the map (clamped here);
    a non-finite corner raises ShapeError.  Returns [16, C]; rows
    scan the grid in row-major order.  The box takes no gradient; features
    do.
    """
    feat = as_tensor(search_feat)
    if feat.ndim != 3:
        raise ShapeError(f"search features must be [C, h, w], got {feat.shape}")
    corners = [float(v) for v in box]
    if not all(np.isfinite(corners)):
        raise ShapeError(f"roi box must be finite, got {tuple(corners)}")
    c, h, w = feat.shape
    x0, y0, x1, y1 = (min(max(v, 0.0), 1.0) for v in corners)
    wx = _axis_weights(x0, x1, w)
    wy = _axis_weights(y0, y1, h)
    # [g, g, h, w] sample weights -> [g*g, h*w]
    weights = (wy[:, None, :, None] * wx[None, :, None, :]).reshape(
        _ROI_GRID * _ROI_GRID, h * w
    )
    flat = ad.reshape(ad.transpose(feat, (1, 2, 0)), (h * w, c))
    return ad.linear(Tensor(weights.astype(feat.dtype)), flat)


class CrossAttnBlock(nn.Module):
    """Single-head cross-attention with residual and layer norm.

    The key and value projections have no bias (see ``attention``): softmax
    ignores a key bias, and a value bias passes through weights that sum to
    one as a constant that ``wo``'s bias already covers.
    """

    def __init__(self, dim, init):
        self.dim = dim
        self.wq = nn.Linear(dim, dim, init)
        self.wk = Tensor(init.trunc_normal((dim, dim)), requires_grad=True)
        self.wv = Tensor(init.trunc_normal((dim, dim)), requires_grad=True)
        self.wo = nn.Linear(dim, dim, init)
        self.norm = nn.LayerNorm(dim)

    def __call__(self, queries, keys):
        """queries [Nq, dim] attend keys [Nk, dim]."""
        q = self.wq(queries)
        k = ad.linear(keys, self.wk)
        v = ad.linear(keys, self.wv)
        att = ad.attention(q, k, v, 1)
        return self.norm(ad.add(queries, self.wo(att)))


class ScorePredictor(nn.Module):
    """Score token, two cross-attention blocks, 3-layer MLP, sigmoid.

    Only the first ``per_template`` template rows, the initial template's,
    are read, so online-template rows cannot influence the score.
    """

    def __init__(self, dim, per_template, init):
        self.dim = dim
        self.per_template = per_template
        self.token = Tensor(init.trunc_normal((1, dim)), requires_grad=True)
        self.block_a = CrossAttnBlock(dim, init)
        self.block_b = CrossAttnBlock(dim, init)
        self.fc1 = nn.Linear(dim, dim, init)
        self.fc2 = nn.Linear(dim, dim, init)
        self.out = nn.Linear(dim, 1, init)

    def __call__(self, search_feat, box, template_tokens):
        """Scalar confidence for ``box`` over [C, h, w] search features and
        the final-stage template tokens [L, dim]."""
        tokens = as_tensor(template_tokens)
        if tokens.ndim != 2 or tokens.shape[1] != self.dim:
            raise ShapeError(
                f"template tokens must be [L, {self.dim}], got {tokens.shape}"
            )
        tokens = tokens[:self.per_template]
        roi = roi_tokens(search_feat, box)
        q = self.block_a(self.token, roi)
        q = self.block_b(q, tokens)
        hidden = ad.gelu(self.fc1(q))
        hidden = ad.gelu(self.fc2(hidden))
        return ad.reshape(ad.sigmoid(self.out(hidden)), ())
