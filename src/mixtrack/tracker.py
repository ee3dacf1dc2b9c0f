"""Online tracking loop: crop, forward, map back, score, update templates.

The tracker holds one static template fixed at init plus N online template
slots.  Every frame it crops a search region around the previous box, runs
the model, maps the predicted box back through the exact affine crop
mapping, and scores the prediction.  The best-scoring candidate crop within
an update interval replaces the oldest online slot at the boundary, but only
if its score clears the threshold.
"""

from dataclasses import dataclass, field

import numpy as np

from . import boxes
from .errors import ConfigError, UsageError

_MIN_SIDE = 16.0


@dataclass(frozen=True)
class CropParams:
    search_factor: float = 5.0
    template_factor: float = 2.0

    def __post_init__(self):
        if self.search_factor <= 1.0 or self.template_factor <= 1.0:
            raise ConfigError(
                f"crop factors must be > 1, got search {self.search_factor}, "
                f"template {self.template_factor}"
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


def _frame_mean(frame):
    """Per-channel float64 mean of a [H, W, 3] uint8 frame.

    Every partial sum is an exact integer below 2**53, so this equals
    ``frame.mean(axis=(0, 1), dtype=np.float64)`` bit for bit without
    converting the frame to floats.
    """
    h, w = frame.shape[:2]
    # uint32 column sums stay exact while H < 2**32 / 255 (about 16.8M rows)
    cols = frame.reshape(h, w * 3).sum(axis=0, dtype=np.uint32)
    sums = cols.reshape(w, 3).sum(axis=0, dtype=np.int64)
    return sums.astype(np.float64) / (h * w)


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

    n = out_size
    wx = fx[None, :, None]
    wy = fy[:, None, None]
    top_row = taps[:n, :n] * (1 - wx) + taps[:n, n:] * wx
    bot_row = taps[n:, :n] * (1 - wx) + taps[n:, n:] * wx
    patch = top_row * (1 - wy) + bot_row * wy
    return np.ascontiguousarray(patch.transpose(2, 0, 1))


def _square_side(box, factor, min_side=_MIN_SIDE):
    x0, y0, x1, y1 = box
    w, h = max(0.0, x1 - x0), max(0.0, y1 - y0)
    side = factor * float(np.sqrt(w * h))
    return max(side, min_side)


def crop_template(frame, box, factor, out_size):
    """Square crop of factor * sqrt(area) around the box center."""
    cx, cy = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
    side = _square_side(box, factor)
    left, top = cx - side / 2.0, cy - side / 2.0
    return _bilinear_crop(frame, left, top, side, out_size)


def crop_search(frame, prev_box, params, out_size):
    """Search crop around the previous box plus its exact affine mapping."""
    cx = (prev_box[0] + prev_box[2]) / 2.0
    cy = (prev_box[1] + prev_box[3]) / 2.0
    side = _square_side(prev_box, params.search_factor)
    left, top = cx - side / 2.0, cy - side / 2.0
    patch = _bilinear_crop(frame, left, top, side, out_size)
    return patch, Affine(left=left, top=top, scale=out_size / side)


@dataclass
class TrackerState:
    first_template: np.ndarray
    online_templates: list
    prev_box: tuple
    frame_index: int = 0
    interval_counter: int = 0
    best_candidate: tuple = None  # (crop, score, frame_index)
    mutation_frames: list = field(default_factory=list)


def maybe_update_template(state, threshold=0.5):
    """Install the interval's best candidate if it clears the threshold.

    The oldest online slot is replaced (slots are kept oldest-first), then
    the candidate record and interval counter reset.
    """
    cand = state.best_candidate
    if cand is not None and cand[1] >= threshold and state.online_templates:
        state.online_templates.pop(0)
        state.online_templates.append(cand[0])
        state.mutation_frames.append(cand[2])
    state.best_candidate = None
    state.interval_counter = 0
    return state


class Tracker:
    """Drives one model over one sequence.  The model is never mutated, so
    any number of Tracker instances may share it."""

    def __init__(
        self,
        model,
        params=CropParams(),
        update_interval=200,
        score_threshold=0.5,
        use_template_cache=False,
    ):
        cfg = model.config
        if cfg.templates < 1:
            raise ConfigError("model must carry at least the static template")
        if update_interval < 1:
            raise ConfigError(f"update interval must be >= 1, got {update_interval}")
        if not 0.0 <= score_threshold <= 1.0:
            raise ConfigError(
                f"score threshold must lie in [0, 1], got {score_threshold}"
            )
        if use_template_cache and cfg.mode != "asymmetric":
            raise ConfigError("template caching requires asymmetric attention")
        self.model = model
        self.params = params
        self.update_interval = update_interval
        self.score_threshold = score_threshold
        self.use_template_cache = use_template_cache
        self.online_slots = cfg.templates - 1
        self._cache = None
        self._cache_key = None

    # ------------------------------------------------------------------

    def init(self, frame, box):
        """Start tracking: box is pixel corners on the first frame."""
        box = boxes.clamp_box(
            box, float(frame.shape[1]), float(frame.shape[0])
        )
        if box[2] - box[0] <= 0 or box[3] - box[1] <= 0:
            raise UsageError(f"cannot initialize from an empty box {box}")
        t_size = self.model.config.template_size[0]
        crop = crop_template(frame, box, self.params.template_factor, t_size)
        return TrackerState(
            first_template=crop,
            online_templates=[crop.copy() for _ in range(self.online_slots)],
            prev_box=box,
        )

    def _templates(self, state):
        stack = [state.first_template] + list(state.online_templates)
        return np.stack(stack)[None]

    def _forward(self, state, patch):
        templates = self._templates(state)
        if self.use_template_cache:
            key = templates.tobytes()
            if self._cache_key != key:
                self._cache = self.model.backbone.forward_template(templates)
                self._cache_key = key
        return self.model.forward_box(templates, patch[None], self._cache)

    def step(self, state, frame):
        """One frame: returns (box in frame pixels, score)."""
        fh, fw = frame.shape[:2]
        s_size = self.model.config.search_size[0]
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
                self.model.config.template_size[0],
            )

        self._advance(state, candidate, score, frame_box)
        return frame_box, score

    def _advance(self, state, candidate, score, frame_box):
        """Shared bookkeeping for real and scripted steps.

        ``candidate()`` returns the frame's template crop; it is called only
        when the score beats the interval's best, the one case that keeps it.
        """
        state.frame_index += 1
        if state.best_candidate is None or score > state.best_candidate[1]:
            state.best_candidate = (candidate(), score, state.frame_index)
        state.interval_counter += 1
        if state.interval_counter >= self.update_interval:
            maybe_update_template(state, self.score_threshold)
        state.prev_box = frame_box
        return state

    def step_scripted(self, state, candidate_crop, score, frame_box=None):
        """Run the update state machine with an externally supplied score.

        Exercises exactly the bookkeeping of step (candidate selection,
        interval boundary, template installation) without a model forward.
        """
        if frame_box is None:
            frame_box = state.prev_box
        self._advance(state, lambda: candidate_crop, score, frame_box)
        return state

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
