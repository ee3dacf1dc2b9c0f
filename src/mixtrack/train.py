"""Two-stage training on synthetic sequences, through one step loop.

Stage 1 fits the backbone and the localization head with the weighted
l1 + giou objective.  Stage 2 freezes those and fits the score head on
balanced positive and negative candidate boxes.  Both run ``_fit``: it
steps the stage's slice of the model's parameter arena in place (no copy,
no rebinding), and each iteration draws a batch, takes the loss on a
tape, stops on a non-finite loss before any parameter moves, and takes
one AdamW step.  A stage supplies only its batch builder, its loss and
its learning rate.  Every example comes from ``_draw_pair``, and stage 2
and ``spm_accuracy`` both turn examples into frozen features plus a
negative box through ``_scored_examples``.  Every random draw is keyed on
(seed, stage, iteration), never on wall clock or worker id, so identical
configs produce identical parameters bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .boxes import iou
from .checkpoint import atomic_write
from .errors import ConfigError, UsageError
from .losses import loc_loss, score_loss
from .tracker import CropParams, crop_search, crop_template

_BRIGHTNESS = 0.25
_JITTER_TRANSLATION = 0.3  # search-crop center shift, as a fraction of w, h
_JITTER_SCALE = 0.2  # search-crop log-scale jitter
_NEGATIVE_IOU_MAX = 0.3
_TRIES = 64  # draws before a rejection sampler gives up
_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_STAGE1 = 1
_STAGE2 = 2
_EVAL = 3  # the stage tag of spm_accuracy's draws
_TAG = 0x74726169


@dataclass(frozen=True)
class TrainConfig:
    """Shared settings for both stages.

    The learning rate starts at ``lr`` and is cut to a tenth at
    ``decay_fraction`` of the stage-1 iterations; stage 2 runs at the
    base rate throughout.  Every training and evaluation crop is taken
    at ``crop_params()``.
    """

    seed: int = 0
    stage1_iters: int = 2000
    stage2_iters: int = 500
    batch_size: int = 4
    lr: float = 1e-4
    decay_fraction: float = 0.8
    weight_decay: float = 1e-4
    clip_norm: float = 0.1
    flip: bool = True
    brightness: bool = True
    max_gap: int = 8
    search_factor: float = 5.0
    template_factor: float = 2.0

    def __post_init__(self):
        for name in ("stage1_iters", "stage2_iters", "batch_size", "max_gap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "weight_decay", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.decay_fraction < 1.0:
            raise ConfigError(
                f"decay_fraction must lie in (0, 1), got {self.decay_fraction}"
            )
        self.crop_params()

    def crop_params(self):
        return CropParams(search_factor=self.search_factor,
                          template_factor=self.template_factor)

    def lr_at(self, iteration):
        """Stage-1 learning rate at a 0-based iteration index."""
        if iteration >= int(self.decay_fraction * self.stage1_iters):
            return self.lr * 0.1
        return self.lr


class AdamW:
    """Adam with decoupled weight decay and a global gradient-norm clip.

    ``params`` are views, in order, of the contiguous float32 ``arena`` (a
    model's ``stage_params``), which is stepped in place: no copy and no
    rebinding of ``p.data``.  The moments are flat buffers of its layout,
    so a step runs a fixed handful of whole-buffer ufuncs however many
    tensors there are.  Between steps the optimizer holds only the arena
    and the two moments.  Each step gathers the gradients into a fresh flat
    buffer, whose slices ``p.grad`` then points at until ``zero_grad``, and
    holds its float64 norm buffer and two scratch rows only while it runs.
    """

    def __init__(self, arena, params, weight_decay, clip_norm):
        self.arena = arena
        self.params = list(params)
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.t = 0
        self.m = np.zeros_like(arena)
        self.v = np.zeros_like(arena)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def _gather(self):
        """Copy every gradient into a new flat buffer (zeros where missing),
        point ``p.grad`` at its slice of it, and return the buffer."""
        flat = np.empty_like(self.arena)
        offset = 0
        for p in self.params:
            grad = flat[offset:offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
            if p.grad is None:
                grad[...] = 0.0
            else:
                grad[...] = p.grad
                p.grad = grad
        return flat

    def _clip(self, grad):
        """Scale the flat gradient in place so its norm is at most
        clip_norm; returns the post-clip norm."""
        g64 = grad.astype(np.float64)
        # square and sum without BLAS, so the bits do not depend on its threads
        g64 *= g64
        norm = float(np.sqrt(np.add.reduce(g64)))
        if norm > self.clip_norm:
            grad *= np.asarray(self.clip_norm / norm, dtype=grad.dtype)
            return self.clip_norm
        return norm

    def step(self, lr):
        """Clip, then apply one update at rate ``lr``; returns the post-clip
        grad norm."""
        g = self._gather()
        gnorm = self._clip(g)
        self.t += 1
        b1, b2 = _BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        p, m, v = self.arena, self.m, self.v
        a, b = np.empty((2, g.size), dtype=g.dtype)
        m *= b1
        v *= b2
        m += np.multiply(g, 1.0 - b1, out=a)
        np.multiply(g, g, out=a)
        a *= 1.0 - b2
        v += a
        # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        a += np.multiply(p, self.weight_decay, out=b)
        a *= lr
        p -= a
        return gnorm


# ----------------------------------------------------------------- sampling

def _iteration_rng(seed, stage, iteration):
    """Generator keyed on (seed, stage, iteration)."""
    seq = np.random.SeedSequence([_TAG, int(seed), int(stage), int(iteration)])
    return np.random.default_rng(seq)


def _usable(box):
    return box[2] - box[0] > 0 and box[3] - box[1] > 0


def _sample_indices(sequence, rng, templates, max_gap):
    n = len(sequence.frames)
    t0 = int(rng.integers(0, n - 1))
    gap = int(rng.integers(1, max_gap + 1))
    search = min(n - 1, t0 + gap)
    extra = [int(rng.integers(0, n)) for _ in range(templates - 1)]
    return [t0] + extra, search


def _jitter_box(box, rng):
    """Shift and rescale a pixel box."""
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    cx += rng.uniform(-1.0, 1.0) * _JITTER_TRANSLATION * w
    cy += rng.uniform(-1.0, 1.0) * _JITTER_TRANSLATION * h
    nw = w * float(np.exp(rng.uniform(-1.0, 1.0) * _JITTER_SCALE))
    nh = h * float(np.exp(rng.uniform(-1.0, 1.0) * _JITTER_SCALE))
    return (cx - nw / 2.0, cy - nh / 2.0, cx + nw / 2.0, cy + nh / 2.0)


def _flip_box(box):
    """Mirror a normalized box around the vertical midline."""
    x0, y0, x1, y1 = box
    return np.array([1.0 - x1, y0, 1.0 - x0, y1], dtype=np.float64)


def make_training_pair(sequence, rng, template_size, search_size, templates,
                       crop_params, flip, brightness, max_gap):
    """Sample one training example from a sequence.

    Returns (templates [T, 3, ts, ts], search [3, ss, ss], box [4]); the
    box is the search-frame ground truth in normalized patch coordinates.
    Template crops are taken at their frames' ground truth, the search
    crop around a jittered copy of its ground truth so the target is not
    always centered.  Frames whose ground truth is degenerate are
    redrawn.  Augmentation coins are drawn whether or not the
    corresponding toggle is on; disabling one never shifts the rest of
    the random stream.
    """
    for _ in range(_TRIES):
        t_idx, si = _sample_indices(sequence, rng, templates, max_gap)
        if all(_usable(sequence.gt_corners(i)) for i in t_idx + [si]):
            break
    else:
        raise UsageError(
            f"no usable ground truth after {_TRIES} draws in "
            f"{sequence.name!r}"
        )
    tmpl = np.stack([
        crop_template(sequence.frames[i], sequence.gt_corners(i),
                      crop_params.template_factor, template_size)
        for i in t_idx
    ])
    gt = sequence.gt_corners(si)
    ref = _jitter_box(gt, rng)
    patch, affine = crop_search(sequence.frames[si], ref, crop_params,
                                search_size)
    box = np.asarray(affine.box_to_patch(gt), dtype=np.float64)
    box /= float(search_size)

    do_flip = rng.random() < 0.5
    gain = 1.0 + rng.uniform(-1.0, 1.0) * _BRIGHTNESS
    if flip and do_flip:
        tmpl = np.ascontiguousarray(tmpl[..., ::-1])
        patch = np.ascontiguousarray(patch[..., ::-1])
        box = _flip_box(box)
    if brightness:
        tmpl = np.clip(tmpl * gain, 0.0, 1.0).astype(np.float32)
        patch = np.clip(patch * gain, 0.0, 1.0).astype(np.float32)
    return tmpl, patch, box


def _negative_box(box, rng):
    """A similar-size box overlapping the given one by less than
    _NEGATIVE_IOU_MAX."""
    w = min(float(box[2] - box[0]), 0.9)
    h = min(float(box[3] - box[1]), 0.9)
    for _ in range(_TRIES):
        s = float(np.exp(rng.uniform(-0.3, 0.3)))
        nw, nh = min(w * s, 0.95), min(h * s, 0.95)
        cx = rng.uniform(nw / 2.0, 1.0 - nw / 2.0)
        cy = rng.uniform(nh / 2.0, 1.0 - nh / 2.0)
        cand = (cx - nw / 2.0, cy - nh / 2.0, cx + nw / 2.0, cy + nh / 2.0)
        if iou(cand, tuple(box)) < _NEGATIVE_IOU_MAX:
            return np.asarray(cand, dtype=np.float64)
    raise UsageError("could not place a negative box")


# ------------------------------------------------------------------ stages

def _pick(data, rng):
    return data[int(rng.integers(0, len(data)))]


def _draw_pair(model, data, rng, cfg, augment):
    """One example from a randomly picked sequence at the model's crop
    sizes and the config's crop factors; ``augment=False`` turns flip and
    brightness off."""
    mc = model.config
    return make_training_pair(
        _pick(data, rng), rng, mc.template_size, mc.search_size,
        templates=mc.templates, crop_params=cfg.crop_params(),
        flip=augment and cfg.flip, brightness=augment and cfg.brightness,
        max_gap=cfg.max_gap,
    )


def _scored_examples(model, data, rng, cfg, augment, count):
    """[(search features, template tokens, ground-truth box, negative
    box)] of ``count`` drawn examples.

    Each example draws its pair and then its negative box, in turn.  The
    backbone then runs once over the stacked crops, without a tape, and
    its outputs are detached, so stage-2 backprop can only ever reach the
    score head.
    """
    drawn = []
    for _ in range(count):
        tmpl, patch, gt = _draw_pair(model, data, rng, cfg, augment)
        drawn.append((tmpl, patch, gt, _negative_box(gt, rng)))
    tmpl, patch, gt, neg = zip(*drawn)
    _, feat, tokens = model.forward_box(np.stack(tmpl), np.stack(patch))
    return [(Tensor(feat.data[i]), Tensor(tokens.data[i]), gt[i], neg[i])
            for i in range(count)]


def _fit(model, data, cfg, stage, make_batch, loss_of, lr_at, on_iteration):
    """The step loop of both stages; returns the loss curve.

    Stage 2 steps the score head's parameters, stage 1 all the others.
    Iteration ``it`` draws its batch with ``make_batch`` from the
    generator keyed on (seed, stage, it), takes ``loss_of(model, batch)``
    on a tape and steps at ``lr_at(it)``.
    """
    if not data:
        raise ConfigError(f"stage {stage} needs at least one training sequence")
    score = stage == _STAGE2
    opt = AdamW(*model.stage_params(score), cfg.weight_decay, cfg.clip_norm)
    curve = []
    for it in range(cfg.stage2_iters if score else cfg.stage1_iters):
        rng = _iteration_rng(cfg.seed, stage, it)
        batch = make_batch(model, data, rng, cfg)
        opt.zero_grad()
        with Tape() as tape:
            loss = loss_of(model, batch)
            value = loss.item()
            if not np.isfinite(value):
                raise UsageError(f"non-finite loss at iteration {it}")
            tape.backward(loss)
        gnorm = opt.step(lr_at(it))
        curve.append((it, value, gnorm))
        if on_iteration is not None:
            on_iteration(it, value, gnorm)
    return curve


def _stage1_batch(model, data, rng, cfg):
    tmpl, search, gt = zip(*[
        _draw_pair(model, data, rng, cfg, augment=True)
        for _ in range(cfg.batch_size)
    ])
    return np.stack(tmpl), np.stack(search), np.stack(gt).astype(np.float32)


def _stage1_loss(model, batch):
    tmpl, search, gt = batch
    box, _, _ = model.forward_box(tmpl, search)
    return loc_loss(box, gt)


def train_stage1(model, data, cfg, on_iteration=None):
    """Fit backbone and localization head in place; returns the loss curve.

    The curve holds one (iteration, loss, grad_norm) row per iteration,
    grad_norm being the post-clip global norm.  A non-finite loss aborts
    before the parameters are touched.  The learning rate follows
    ``cfg.lr_at``.
    """
    return _fit(model, data, cfg, _STAGE1, _stage1_batch, _stage1_loss,
                cfg.lr_at, on_iteration)


def _stage2_batch(model, data, rng, cfg):
    return _scored_examples(model, data, rng, cfg, augment=True,
                            count=cfg.batch_size)


def _stage2_loss(model, batch):
    """Score loss over each example's positive (label 1) and negative
    (label 0) box."""
    scores = [ad.reshape(model.predict_score(feat, tuple(box), tokens), (1,))
              for feat, tokens, pos, neg in batch for box in (pos, neg)]
    stacked = ad.concat(scores, axis=0)
    labels = np.asarray([1.0, 0.0] * len(batch), dtype=np.float32)
    return score_loss(stacked, labels)


def train_stage2_spm(model, data, cfg, on_iteration=None):
    """Fit the score head on frozen features; returns the loss curve.

    Same curve and abort rule as ``train_stage1``; only score-head
    parameters are stepped, at the base rate ``cfg.lr`` throughout.
    """
    return _fit(model, data, cfg, _STAGE2, _stage2_batch, _stage2_loss,
                lambda it: cfg.lr, on_iteration)


def spm_accuracy(model, data, cfg, samples=100):
    """Balanced accuracy of the score head at threshold 0.5.

    Draws one positive and one negative candidate per sample from fresh,
    unaugmented crops, so pass held-out sequences for an honest number.
    """
    if not data:
        raise ConfigError("spm_accuracy needs at least one sequence")
    if samples < 1:
        raise ConfigError(f"spm_accuracy needs samples >= 1, got {samples}")
    correct = 0
    for i in range(samples):
        rng = _iteration_rng(cfg.seed, _EVAL, i)
        (feat, tokens, pos, neg), = _scored_examples(
            model, data, rng, cfg, augment=False, count=1
        )
        correct += int(model.predict_score(feat, tuple(pos), tokens).item() >= 0.5)
        correct += int(model.predict_score(feat, tuple(neg), tokens).item() < 0.5)
    return correct / (2.0 * samples)


def default_training_data(seed, sequences=8, frames=40):
    """A deterministic spread of synthetic sequences for the two stages.

    Motion, clutter and jitter vary across the set so the model sees both
    easy and busy scenes.
    """
    from .data import SyntheticConfig, generate_synthetic

    data = []
    for i in range(sequences):
        cfg = SyntheticConfig(
            frames=frames,
            translation=2.0 + (i % 4),
            distractors=i % 3,
            scale_jitter=0.02 * (i % 2),
        )
        data.append(generate_synthetic(cfg, seed=1000 * seed + i))
    return data


# ------------------------------------------------------------------- curves

def write_loss_curve(path, curve):
    """Write iter,loss,grad_norm CSV rows atomically."""
    lines = ["iter,loss,grad_norm"]
    for it, loss, gnorm in curve:
        lines.append(f"{it},{loss:.8g},{gnorm:.8g}")
    atomic_write(path, "\n".join(lines) + "\n")
