"""Online tracking loop: crop, forward, map back, score, update templates.

A ``Tracker`` is a policy over one model; a ``TrackerState`` is one
sequence: its template stack (the static crop fixed at init, then N online
slots) and, when templates are cached, that stack's features.  Every frame
crops a search region around the previous box, runs the model, maps the
predicted box back through the exact affine crop mapping, and scores it.
The interval's best-scoring candidate crop replaces the oldest online slot
at the boundary if its score clears the threshold, which drops the cache.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import boxes
from .attention import ASYMMETRIC
from .errors import ConfigError, UsageError

_MIN_SIDE = 16.0
_MAX_SIDE = 2.0 ** 53  # beyond it, float64 pixel coordinates are not exact


@dataclass(frozen=True)
class CropParams:
    search_factor: float = 5.0
    template_factor: float = 2.0

    def __post_init__(self):
        factors = (self.search_factor, self.template_factor)
        if not all(math.isfinite(f) and f > 1.0 for f in factors):
            raise ConfigError(
                f"crop factors must be finite and > 1, got search "
                f"{self.search_factor}, template {self.template_factor}"
            )


def _check_update(update_interval, score_threshold):
    """The template-update settings a Tracker and a RunConfig share."""
    if update_interval < 1:
        raise ConfigError(f"update_interval must be >= 1, got {update_interval}")
    if not 0.0 <= score_threshold <= 1.0:
        raise ConfigError(
            f"score_threshold must lie in [0, 1], got {score_threshold}"
        )


@dataclass(frozen=True)
class Affine:
    """Mapping between frame and patch coordinates for one crop.

    patch = (frame - (left, top)) * scale, applied per axis; exact and
    invertible everywhere.
    """

    left: float
    top: float
    scale: float

    def box_to_frame(self, box):
        x0, y0, x1, y1 = box
        return (
            self.left + x0 / self.scale,
            self.top + y0 / self.scale,
            self.left + x1 / self.scale,
            self.top + y1 / self.scale,
        )

    def box_to_patch(self, box):
        x0, y0, x1, y1 = box
        return (
            (x0 - self.left) * self.scale,
            (y0 - self.top) * self.scale,
            (x1 - self.left) * self.scale,
            (y1 - self.top) * self.scale,
        )


# Rows per chunk of ``_frame_mean``: a uint16 column sum of 257 rows is at
# most 257 * 255 = 65535, so it cannot wrap.
_MEAN_ROWS = 257


def _frame_mean(frame):
    """Per-channel float64 mean of a [H, W, 3] uint8 frame.

    Column sums run in uint16 over chunks of ``_MEAN_ROWS`` rows and add up
    in int64.  Every partial sum is an exact integer below 2**53, so this
    equals ``frame.mean(axis=(0, 1), dtype=np.float64)`` bit for bit without
    converting the frame to floats.
    """
    h, w = frame.shape[:2]
    flat = frame.reshape(h, w * 3)
    cols = np.zeros(w * 3, dtype=np.int64)
    for r in range(0, h, _MEAN_ROWS):
        cols += flat[r : r + _MEAN_ROWS].sum(axis=0, dtype=np.uint16)
    return cols.reshape(w, 3).sum(axis=0).astype(np.float64) / (h * w)


def _bilinear_crop(frame, left, top, side, out_size):
    """Sample an out_size x out_size patch over the given frame square.

    frame is [H, W, 3] uint8; the result is [3, out, out] float32 in [0, 1].
    Only the 2*out x 2*out taps the patch samples are read and converted.
    Taps outside the frame take the exact per-channel mean color, which is
    computed only when some tap falls outside.
    """
    h, w = frame.shape[:2]
    step = side / out_size
    # patch pixel centers in frame pixel-index space
    xs = left + (np.arange(out_size, dtype=np.float64) + 0.5) * step - 0.5
    ys = top + (np.arange(out_size, dtype=np.float64) + 0.5) * step - 0.5
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0).astype(np.float32)
    fy = (ys - y0).astype(np.float32)

    # tap rows are [y0, y0 + 1] and columns [x0, x0 + 1]
    rows = np.concatenate([y0, y0 + 1])
    cols = np.concatenate([x0, x0 + 1])
    flat = np.clip(rows, 0, h - 1)[:, None] * w + np.clip(cols, 0, w - 1)
    taps = frame.reshape(-1, 3).take(flat, axis=0).astype(np.float32) / 255.0
    rows_out = (rows < 0) | (rows >= h)
    cols_out = (cols < 0) | (cols >= w)
    if rows_out.any() or cols_out.any():
        mean = (_frame_mean(frame) / 255.0).astype(np.float32)
        taps[rows_out] = mean
        taps[:, cols_out] = mean

    # blend on the [2n, 2n * 3] row view, each column weight repeated per
    # channel: the same products and sums as on [2n, 2n, 3], in long rows
    n, c = out_size, out_size * 3
    taps = taps.reshape(2 * n, 2 * c)
    wx = np.repeat(fx, 3)
    wy = fy[:, None]
    top_row = taps[:n, :c] * (1 - wx) + taps[:n, c:] * wx
    bot_row = taps[n:, :c] * (1 - wx) + taps[n:, c:] * wx
    patch = top_row * (1 - wy) + bot_row * wy
    return np.ascontiguousarray(patch.reshape(n, n, 3).transpose(2, 0, 1))


def _square_side(box, factor, name):
    """factor * sqrt(area), at least _MIN_SIDE.  A side too large to
    sample is a ConfigError naming the factor's setting, ``name``."""
    x0, y0, x1, y1 = box
    w, h = max(0.0, x1 - x0), max(0.0, y1 - y0)
    side = factor * float(np.sqrt(w * h))
    if not side < _MAX_SIDE:
        raise ConfigError(
            f"{name} = {factor} makes a crop side of {side} pixels around "
            f"{tuple(float(v) for v in box)}; it must stay below 2**53"
        )
    return max(side, _MIN_SIDE)


def crop_template(frame, box, factor, out_size):
    """Square crop of factor * sqrt(area) around the box center."""
    cx, cy = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
    side = _square_side(box, factor, "template_factor")
    left, top = cx - side / 2.0, cy - side / 2.0
    return _bilinear_crop(frame, left, top, side, out_size)


def crop_search(frame, prev_box, params, out_size):
    """Search crop around the previous box plus its exact affine mapping."""
    cx = (prev_box[0] + prev_box[2]) / 2.0
    cy = (prev_box[1] + prev_box[3]) / 2.0
    side = _square_side(prev_box, params.search_factor, "search_factor")
    left, top = cx - side / 2.0, cy - side / 2.0
    patch = _bilinear_crop(frame, left, top, side, out_size)
    return patch, Affine(left=left, top=top, scale=out_size / side)


@dataclass
class TrackerState:
    templates: np.ndarray  # [1, T, 3, h, w]: static crop, then online slots oldest first
    prev_box: tuple
    frame_index: int = 0
    best_candidate: tuple = None  # (crop, score, frame_index)
    cache: object = None  # TemplateCache of templates, when the tracker caches
    mutation_frames: list = field(default_factory=list)


def maybe_update_template(state, threshold):
    """Install the interval's best candidate if it clears the threshold.

    The oldest online row is dropped (rows are kept oldest-first), the
    candidate fills the last row and the stale cache goes; then the
    candidate record resets.
    """
    cand = state.best_candidate
    online = state.templates[0, 1:]
    if cand is not None and cand[1] >= threshold and len(online):
        online[:-1] = online[1:]
        online[-1] = cand[0]
        state.cache = None
        state.mutation_frames.append(cand[2])
    state.best_candidate = None
    return state


class Tracker:
    """Drives one model over sequences.  It holds no per-sequence state and
    mutates neither itself nor the model, so any number of states may share
    it; each state is stepped by Trackers of one model and caching setting."""

    def __init__(
        self,
        model,
        params=CropParams(),
        update_interval=200,
        score_threshold=0.5,
        use_template_cache=False,
    ):
        _check_update(update_interval, score_threshold)
        if use_template_cache and model.config.mode != ASYMMETRIC:
            raise ConfigError("template caching requires asymmetric attention")
        self.model = model
        self.params = params
        self.update_interval = update_interval
        self.score_threshold = score_threshold
        self.use_template_cache = use_template_cache

    # ------------------------------------------------------------------

    def init(self, frame, box):
        """Start tracking: box is pixel corners on the first frame.  Its
        width and height must be finite and positive before it is clamped,
        which would mirror or clip a bad box into one the tracker runs with.
        """
        w, h = float(box[2]) - float(box[0]), float(box[3]) - float(box[1])
        if not (0.0 < w < math.inf and 0.0 < h < math.inf):  # so corners are finite
            raise UsageError(f"the first box needs a finite, positive width and "
                             f"height, got width {w} and height {h}")
        box = boxes.clamp_box(
            box, float(frame.shape[1]), float(frame.shape[0])
        )
        if box[2] - box[0] <= 0 or box[3] - box[1] <= 0:
            raise UsageError(f"cannot initialize from an empty box {box}")
        cfg = self.model.config
        crop = crop_template(frame, box, self.params.template_factor,
                             cfg.template_size)
        templates = np.repeat(crop[None, None], cfg.templates, axis=1)
        return TrackerState(templates=templates, prev_box=box)

    def _forward(self, state, patch):
        if self.use_template_cache and state.cache is None:
            state.cache = self.model.backbone.forward_template(state.templates)
        return self.model.forward_box(state.templates, patch[None], state.cache)

    def step(self, state, frame):
        """One frame: returns (box in frame pixels, score)."""
        fh, fw = frame.shape[:2]
        s_size = self.model.config.search_size
        patch, affine = crop_search(frame, state.prev_box, self.params, s_size)
        box_t, feat, tmpl = self._forward(state, patch)
        norm = tuple(float(v) for v in box_t.numpy()[0])
        score = float(
            self.model.predict_score(feat[0], norm, tmpl[0]).item()
        )
        patch_box = tuple(v * s_size for v in norm)
        frame_box = affine.box_to_frame(patch_box)
        frame_box = boxes.clamp_box(frame_box, float(fw), float(fh))

        def candidate():
            return crop_template(
                frame, frame_box, self.params.template_factor,
                self.model.config.template_size,
            )

        self._advance(state, candidate, score, frame_box)
        return frame_box, score

    def _advance(self, state, candidate, score, frame_box):
        """The update state machine of ``step`` after the model has scored
        the frame: candidate selection, interval boundary, template
        installation and the new previous box.

        ``candidate()`` returns the frame's template crop; it is called only
        when the score beats the interval's best, the one case that keeps it.
        """
        state.frame_index += 1
        if state.best_candidate is None or score > state.best_candidate[1]:
            state.best_candidate = (candidate(), score, state.frame_index)
        if state.frame_index % self.update_interval == 0:
            maybe_update_template(state, self.score_threshold)
        state.prev_box = frame_box

    def track(self, sequence, on_frame=None):
        """Track a whole Sequence from its first ground-truth box.

        Returns (boxes, scores): per-frame pixel-corner predictions, with
        the ground-truth box echoed for frame 0.
        """
        state = self.init(sequence.frames[0], sequence.gt_corners(0))
        out = [sequence.gt_corners(0)]
        scores = [1.0]
        for i in range(1, len(sequence.frames)):
            box, score = self.step(state, sequence.frames[i])
            out.append(box)
            scores.append(score)
            if on_frame is not None:
                on_frame(i, box, score)
        return out, scores
