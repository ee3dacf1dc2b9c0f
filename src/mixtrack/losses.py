"""Training losses: weighted L1 + generalized IoU for boxes, binary
cross-entropy for the confidence score.

Box losses run on unclamped corner coordinates; clipping to the image
happens only when boxes are reported.  The differentiable IoU terms guard
their denominators with a tiny floor so a degenerate pair cannot poison a
training step with NaNs.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor
from .errors import ShapeError

_TINY = 1e-12
# the box-loss weights lambda_L1 and lambda_giou of the paper
_L1_WEIGHT = 5.0
_GIOU_WEIGHT = 2.0


def _as_boxes(t):
    t = as_tensor(t)
    if t.ndim == 1:
        t = ad.reshape(t, (1, 4))
    if t.ndim != 2 or t.shape[1] != 4:
        raise ShapeError(f"boxes must be [N, 4] corners, got {t.shape}")
    return t


def giou_pairwise(pred, target):
    """Differentiable GIoU of matching box rows; returns a [N] tensor."""
    p, t = _as_boxes(pred), _as_boxes(target)
    if p.shape[0] != t.shape[0]:
        raise ShapeError(f"box counts differ: {p.shape[0]} vs {t.shape[0]}")
    px0, py0, px1, py1 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    tx0, ty0, tx1, ty1 = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    iw = ad.maximum(ad.sub(ad.minimum(px1, tx1), ad.maximum(px0, tx0)), 0.0)
    ih = ad.maximum(ad.sub(ad.minimum(py1, ty1), ad.maximum(py0, ty0)), 0.0)
    inter = ad.mul(iw, ih)
    ap = ad.mul(ad.sub(px1, px0), ad.sub(py1, py0))
    at = ad.mul(ad.sub(tx1, tx0), ad.sub(ty1, ty0))
    union = ad.sub(ad.add(ap, at), inter)
    overlap = ad.div(inter, ad.maximum(union, _TINY))
    ew = ad.sub(ad.maximum(px1, tx1), ad.minimum(px0, tx0))
    eh = ad.sub(ad.maximum(py1, ty1), ad.minimum(py0, ty0))
    enclosing = ad.mul(ew, eh)
    overhead = ad.div(ad.sub(enclosing, union), ad.maximum(enclosing, _TINY))
    return ad.sub(overlap, overhead)


def loc_loss(pred, target):
    """5 * mean |corner error| + 2 * mean (1 - giou)."""
    p, t = _as_boxes(pred), _as_boxes(target)
    l1 = ad.mean_(ad.abs_(ad.sub(p, t)))
    g = ad.mean_(ad.sub(1.0, giou_pairwise(p, t)))
    return ad.add(ad.mul(l1, _L1_WEIGHT), ad.mul(g, _GIOU_WEIGHT))


def score_loss(p, label):
    """Binary cross-entropy on a predicted probability.

    p is clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    p = as_tensor(p)
    y = np.asarray(label, dtype=p.dtype)
    pc = ad.minimum(ad.maximum(p, 1e-7), 1.0 - 1e-7)
    pos = ad.mul(ad.log(pc), y)
    neg = ad.mul(ad.log(ad.sub(1.0, pc)), 1.0 - y)
    return ad.mul(ad.mean_(ad.add(pos, neg)), -1.0)
