"""Axis-aligned box arithmetic on plain floats.

A box is a 4-tuple of corners (x0, y0, x1, y1).  Ground-truth files store
boxes as top-left plus size (x, y, w, h); conversion helpers translate
between the forms.  Coordinates are unit-agnostic: the tracker works in
normalized [0, 1] crops, evaluation in pixels.
"""

import math


def to_corners(xywh):
    x, y, w, h = (float(v) for v in xywh)
    return (x, y, x + w, y + h)


def to_xywh(box):
    x0, y0, x1, y1 = (float(v) for v in box)
    return (x0, y0, x1 - x0, y1 - y0)


def clamp_box(box, x_max, y_max):
    """Clip corners into [0, x_max] x [0, y_max], keeping x0<=x1, y0<=y1."""
    x0, y0, x1, y1 = box
    x0 = min(max(float(x0), 0.0), x_max)
    x1 = min(max(float(x1), 0.0), x_max)
    y0 = min(max(float(y0), 0.0), y_max)
    y1 = min(max(float(y1), 0.0), y_max)
    return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


def area(box):
    x0, y0, x1, y1 = box
    return max(0.0, float(x1) - float(x0)) * max(0.0, float(y1) - float(y0))


def iou(a, b):
    """Intersection over union; 0 when the union has no area."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def giou(a, b):
    """Generalized IoU: iou minus enclosing-box overhead fraction.

    When the enclosing box is degenerate the value is 1 for identical boxes
    and 0 otherwise.
    """
    ew = max(a[2], b[2]) - min(a[0], b[0])
    eh = max(a[3], b[3]) - min(a[1], b[1])
    enclosing = ew * eh
    if enclosing <= 0.0:
        same = all(float(u) == float(v) for u, v in zip(a, b))
        return 1.0 if same else 0.0
    inter_x = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    inter_y = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = inter_x * inter_y
    union = area(a) + area(b) - inter
    overlap = 0.0 if union <= 0.0 else inter / union
    return overlap - (enclosing - union) / enclosing


def center_distance(a, b):
    ax, ay = (a[0] + a[2]) / 2.0, (a[1] + a[3]) / 2.0
    bx, by = (b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0
    return math.hypot(ax - bx, ay - by)
