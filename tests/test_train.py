import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mixtrack
from mixtrack import autodiff as ad
from mixtrack import nn, train
from mixtrack.autodiff import Tape, Tensor
from mixtrack.boxes import iou
from mixtrack.checkpoint import load_state, state_dict
from mixtrack.data import Sequence, SyntheticConfig, generate_synthetic, success_auc
from mixtrack.errors import ConfigError, UsageError
from mixtrack.model import build_model
from mixtrack.tracker import CropParams, Tracker
from mixtrack.train import (
    AdamW,
    TrainConfig,
    make_training_pair,
    spm_accuracy,
    train_stage1,
    train_stage2_spm,
    write_loss_curve,
)


def pair(seq, rng, template_size, search_size, **kwargs):
    """make_training_pair with two templates, default crops, both
    augmentations on and a gap of up to 8 frames, unless overridden."""
    settings = dict(templates=2, crop_params=CropParams(), flip=True,
                    brightness=True, max_gap=8)
    return make_training_pair(seq, rng, template_size, search_size,
                              **{**settings, **kwargs})


def tiny_data(n=2, frames=8, translation=2.0, base_seed=100):
    cfg = SyntheticConfig(frames=frames, translation=translation, distractors=1)
    return [generate_synthetic(cfg, seed=base_seed + i) for i in range(n)]


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4
        assert cfg.weight_decay == 1e-4
        assert cfg.clip_norm == 0.1
        assert cfg.decay_fraction == 0.8

    @pytest.mark.parametrize("kwargs", [
        {"stage1_iters": 0},
        {"stage2_iters": 0},
        {"batch_size": 0},
        {"max_gap": 0},
        {"lr": 0.0},
        {"weight_decay": -1e-4},
        {"clip_norm": 0.0},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"weight_decay": float("nan")},
        {"clip_norm": float("inf")},
        {"decay_fraction": float("nan")},
        {"decay_fraction": 1.0},
        {"decay_fraction": 0.0},
        {"seed": -1},
        {"search_factor": 1.0},
        {"template_factor": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_lr_schedule_decays_at_fraction(self):
        cfg = TrainConfig(stage1_iters=1000, lr=1e-4)
        assert cfg.lr_at(0) == 1e-4
        assert cfg.lr_at(799) == 1e-4
        assert cfg.lr_at(800) == pytest.approx(1e-5)
        assert cfg.lr_at(999) == pytest.approx(1e-5)

    def test_crop_factors_reach_every_training_crop(self, monkeypatch):
        """Both stages and spm_accuracy crop at the config's factors, the
        tracker's: no crop falls back to the default ones."""
        seen = set()

        def search(frame, box, params, size, crop=train.crop_search):
            seen.add(("search", params.search_factor))
            return crop(frame, box, params, size)

        def template(frame, box, factor, size, crop=train.crop_template):
            seen.add(("template", factor))
            return crop(frame, box, factor, size)

        monkeypatch.setattr(train, "crop_search", search)
        monkeypatch.setattr(train, "crop_template", template)
        cfg = TrainConfig(stage1_iters=1, stage2_iters=1, batch_size=1,
                          search_factor=3.0, template_factor=2.5)
        assert cfg.crop_params() == CropParams(3.0, 2.5)
        model = build_model("tiny", seed=2)
        train_stage1(model, tiny_data(), cfg)
        assert seen == {("search", 3.0), ("template", 2.5)}
        seen.clear()
        train_stage2_spm(model, tiny_data(), cfg)
        assert seen == {("search", 3.0), ("template", 2.5)}
        seen.clear()
        spm_accuracy(model, tiny_data(), cfg, samples=1)
        assert seen == {("search", 3.0), ("template", 2.5)}


class PerTensorAdamW:
    """AdamW stepped tensor by tensor, as a reference for the flat arena."""

    def __init__(self, arrays, lr, weight_decay, clip_norm, betas=(0.9, 0.999), eps=1e-8):
        self.arrays, self.lr, self.wd, self.clip = arrays, lr, weight_decay, clip_norm
        self.betas, self.eps, self.t = betas, eps, 0
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}

    def step(self, grads):
        total = sum(float(np.sum(np.float64(g) ** 2)) for g in grads.values() if g is not None)
        norm = float(np.sqrt(total))
        if norm > self.clip:
            scale = np.float32(self.clip / norm)
            grads = {k: None if g is None else g * scale for k, g in grads.items()}
            norm = self.clip
        self.t += 1
        b1, b2 = self.betas
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for k, p in self.arrays.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= b1
            v *= b2
            if g is not None:
                m += (1.0 - b1) * g
                v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= self.lr * (update + self.wd * p)
        return norm


def packed_adamw(params, weight_decay, clip_norm):
    """AdamW over a dict of tensors, packed into their own arena."""
    tensors = list(params.values())
    arena = nn.pack(tensors, [t.data for t in tensors])
    return AdamW(arena, params.values(), weight_decay, clip_norm)


class TestAdamW:
    def make_params(self, rng, scale=1.0):
        return {
            "a": Tensor(rng.normal(size=(4, 3)).astype(np.float32) * scale,
                        requires_grad=True),
            "b": Tensor(rng.normal(size=(5,)).astype(np.float32) * scale,
                        requires_grad=True),
        }

    def global_norm(self, params):
        total = sum(float(np.sum(np.float64(p.grad) ** 2))
                    for p in params.values() if p.grad is not None)
        return float(np.sqrt(total))

    def test_clip_caps_global_norm(self):
        rng = np.random.default_rng(0)
        params = self.make_params(rng)
        for p in params.values():
            p.grad = np.full(p.shape, 7.0, dtype=np.float32)
        opt = packed_adamw(params, weight_decay=1e-4, clip_norm=0.1)
        gnorm = opt.step(1e-4)
        assert gnorm <= 0.1 + 1e-6

    def test_clip_scales_grads_to_the_rate(self):
        rng = np.random.default_rng(1)
        params = self.make_params(rng)
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt = packed_adamw(params, weight_decay=1e-4, clip_norm=0.1)
        opt.step(1e-4)  # p.grad holds the clipped gradient until zero_grad
        assert self.global_norm(params) == pytest.approx(0.1, rel=1e-5)

    def test_small_grads_pass_through_unclipped(self):
        rng = np.random.default_rng(2)
        params = self.make_params(rng)
        for p in params.values():
            p.grad = np.full(p.shape, 1e-4, dtype=np.float32)
        before = self.global_norm(params)
        opt = packed_adamw(params, weight_decay=1e-4, clip_norm=0.1)
        gnorm = opt.step(1e-4)
        assert gnorm == pytest.approx(before)
        assert self.global_norm(params) == pytest.approx(before)

    def test_zero_grad_step_is_pure_decay(self):
        """With empty moments the update reduces to p -= lr * wd * p."""
        rng = np.random.default_rng(3)
        params = self.make_params(rng)
        p0 = {k: p.data.copy() for k, p in params.items()}
        opt = packed_adamw(params, weight_decay=1e-2, clip_norm=0.1)
        opt.step(1e-2)
        for k, p in params.items():
            expected = p0[k] - 1e-2 * (1e-2 * p0[k])
            np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-9)

    def test_steps_are_deterministic(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(4)
            params = self.make_params(rng)
            opt = packed_adamw(params, weight_decay=1e-4, clip_norm=0.1)
            for i in range(5):
                for p in params.values():
                    p.grad = (rng.normal(size=p.shape) * 0.01).astype(np.float32)
                opt.step(1e-4)
            outs.append({k: p.data.copy() for k, p in params.items()})
        for k in outs[0]:
            assert np.array_equal(outs[0][k], outs[1][k])

    def test_parameters_become_views_of_one_arena(self):
        rng = np.random.default_rng(6)
        params = self.make_params(rng)
        before = np.concatenate([p.data.ravel() for p in params.values()])
        tensors = list(params.values())
        arena = nn.pack(tensors, [t.data for t in tensors])
        assert all(p.data.base is arena for p in params.values())
        assert np.array_equal(arena, before)
        data = [p.data for p in params.values()]
        opt = AdamW(arena, params.values(), weight_decay=1e-4, clip_norm=0.1)
        assert opt.arena is arena
        assert all(p.data is d for p, d in zip(params.values(), data))
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step(1e-4)
        assert all(p.data is d for p, d in zip(params.values(), data))
        assert np.array_equal(arena, np.concatenate(
            [p.data.ravel() for p in params.values()]))
        assert not np.array_equal(arena, before)

    @pytest.mark.parametrize("grad_scale, clipped", [(1e-3, False), (10.0, True)])
    def test_steps_match_per_tensor_reference(self, grad_scale, clipped):
        rng = np.random.default_rng(7)
        params = self.make_params(rng)
        params["c"] = Tensor(rng.normal(size=(2, 2, 3)).astype(np.float32),
                             requires_grad=True)
        ref = {k: p.data.copy() for k, p in params.items()}
        opt = packed_adamw(params, weight_decay=1e-2, clip_norm=0.1)
        ref_opt = PerTensorAdamW(ref, lr=1e-2, weight_decay=1e-2, clip_norm=0.1)
        for i in range(5):
            grads = {k: (rng.normal(size=p.shape) * grad_scale).astype(np.float32)
                     for k, p in params.items()}
            grads["b" if i % 2 else "c"] = None  # a missing gradient counts as zero
            for k, p in params.items():
                p.grad = grads[k]
            gnorm, ref_gnorm = opt.step(1e-2), ref_opt.step(grads)
            assert (ref_gnorm == 0.1) is clipped
            assert gnorm == pytest.approx(ref_gnorm, rel=1e-6)
        for k, p in params.items():
            if clipped:
                np.testing.assert_allclose(p.data, ref[k], rtol=1e-6, atol=0)
            else:
                assert np.array_equal(p.data, ref[k]), k

    def test_clip_norm_bits_do_not_depend_on_blas_threads(self):
        # about tiny's parameter count (237,921); OpenBLAS splits a dot
        # product this long across threads, which changes its summation order
        script = (
            "import numpy as np\n"
            "from mixtrack.autodiff import Tensor\n"
            "from mixtrack.nn import pack\n"
            "from mixtrack.train import AdamW\n"
            "rng = np.random.default_rng(11)\n"
            "p = Tensor(np.zeros(238403, np.float32), requires_grad=True)\n"
            "p.grad = rng.normal(size=p.shape).astype(np.float32)\n"
            "opt = AdamW(pack([p], [p.data]), [p], weight_decay=1e-4, clip_norm=1e9)\n"
            "print(opt.step(1e-4).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(mixtrack.__file__)))
        norms = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            norms.append(run.stdout.strip())
        assert norms[0] == norms[1]

    def test_zero_grad_clears(self):
        rng = np.random.default_rng(5)
        params = self.make_params(rng)
        for p in params.values():
            p.grad = np.ones(p.shape, dtype=np.float32)
        packed_adamw(params, weight_decay=1e-4, clip_norm=0.1).zero_grad()
        assert all(p.grad is None for p in params.values())

    def test_holds_only_arena_and_moments_between_steps(self):
        rng = np.random.default_rng(9)
        params = self.make_params(rng)
        opt = packed_adamw(params, weight_decay=1e-4, clip_norm=0.1)
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step(1e-4)
        flat = params["a"].grad.base
        assert flat is not None and params["b"].grad.base is flat
        gathered = weakref.ref(flat)
        del flat
        opt.zero_grad()
        assert gathered() is None
        held = [a for v in vars(opt).values()
                for a in (v if isinstance(v, list) else [v])
                if isinstance(a, np.ndarray)]
        assert all(a.base is opt.arena for a in held
                   if not any(a is b for b in (opt.arena, opt.m, opt.v)))


class TestTrainingPairs:
    def test_shapes_and_range(self):
        seq = tiny_data(1)[0]
        rng = np.random.default_rng(0)
        tmpl, patch, box = pair(seq, rng, 32, 64)
        assert tmpl.shape == (2, 3, 32, 32)
        assert patch.shape == (3, 64, 64)
        assert tmpl.dtype == np.float32 and patch.dtype == np.float32
        assert box.shape == (4,)
        assert box[2] > box[0] and box[3] > box[1]
        assert 0.0 <= box.min() and box.max() <= 1.0

    def test_flip_box_mirrors_x(self):
        box = np.array([0.2, 0.3, 0.5, 0.8])
        flipped = train._flip_box(box)
        np.testing.assert_allclose(flipped, [0.5, 0.3, 0.8, 0.8])
        np.testing.assert_allclose(train._flip_box(flipped), box)

    def test_flip_toggle_mirrors_or_matches_base(self):
        """Coins are drawn either way, so toggling flip never shifts the
        stream: the flipped call returns the base box or its mirror."""
        seq = tiny_data(1)[0]
        seen_flip, seen_same = 0, 0
        for seed in range(20):
            base = pair(
                seq, np.random.default_rng(seed), 32, 64,
                flip=False, brightness=False)[2]
            got = pair(
                seq, np.random.default_rng(seed), 32, 64,
                flip=True, brightness=False)[2]
            if np.array_equal(got, base):
                seen_same += 1
            else:
                assert np.array_equal(got, train._flip_box(base))
                seen_flip += 1
        assert seen_flip > 0 and seen_same > 0

    def test_brightness_changes_pixels_never_the_box(self):
        seq = tiny_data(1)[0]
        for seed in range(5):
            t0, p0, b0 = pair(
                seq, np.random.default_rng(seed), 32, 64,
                flip=False, brightness=False)
            t1, p1, b1 = pair(
                seq, np.random.default_rng(seed), 32, 64,
                flip=False, brightness=True)
            assert np.array_equal(b0, b1)
            assert not np.array_equal(p0, p1)
            assert p1.min() >= 0.0 and p1.max() <= 1.0

    def test_unaugmented_box_round_trips_through_the_affine(self, monkeypatch):
        """The search crop's own affine maps the returned box back onto the
        frame's ground truth, wherever the jitter put the crop."""
        cfg = SyntheticConfig(frames=6, translation=0.0, distractors=0)
        seq = generate_synthetic(cfg, seed=3)
        gt = seq.gt_corners(0)
        affines = []

        def crop_search(*args):
            patch, affine = real_crop_search(*args)
            affines.append(affine)
            return patch, affine

        real_crop_search = train.crop_search
        monkeypatch.setattr(train, "crop_search", crop_search)
        for seed in range(5):
            _, _, box = pair(
                seq, np.random.default_rng(seed), 32, 64,
                flip=False, brightness=False)
            back = affines[-1].box_to_frame(tuple(v * 64.0 for v in box))
            np.testing.assert_allclose(back, gt, atol=1e-9)
        assert len({(a.left, a.top, a.scale) for a in affines}) == 5

    def test_degenerate_gt_is_resampled(self):
        frames = [np.zeros((40, 40, 3), dtype=np.uint8) for _ in range(3)]
        gt = [(5.0, 5.0, 10.0, 10.0), (8.0, 8.0, 0.0, 4.0),
              (6.0, 6.0, 10.0, 10.0)]
        seq = Sequence(frames=frames, gt=gt, name="bad-middle")
        for seed in range(50):
            _, _, box = pair(
                seq, np.random.default_rng(seed), 16, 32, max_gap=2)
            assert box[2] > box[0] and box[3] > box[1]

    def test_all_degenerate_raises(self):
        frames = [np.zeros((40, 40, 3), dtype=np.uint8) for _ in range(2)]
        seq = Sequence(frames=frames, gt=[(5.0, 5.0, 0.0, 0.0)] * 2, name="bad")
        with pytest.raises(UsageError, match="no usable ground truth"):
            pair(seq, np.random.default_rng(0), 16, 32)

    def test_negative_boxes_undershoot_the_iou_cutoff(self):
        rng = np.random.default_rng(7)
        box = np.array([0.4, 0.4, 0.6, 0.6])
        for _ in range(200):
            neg = train._negative_box(box, rng)
            assert iou(tuple(neg), tuple(box)) < 0.3
            assert neg.min() >= 0.0 and neg.max() <= 1.0
            assert neg[2] > neg[0] and neg[3] > neg[1]


class TestStage1:
    def small_cfg(self, iters=3):
        return TrainConfig(stage1_iters=iters, stage2_iters=2, batch_size=2,
                           seed=11)

    def test_smoke_records_curve_and_moves_params(self):
        model = build_model("tiny", seed=1)
        data = tiny_data()
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        curve = train_stage1(model, data, self.small_cfg())
        assert len(curve) == 3
        for it, loss, gnorm in curve:
            assert np.isfinite(loss)
            assert gnorm <= 0.1 + 1e-6
        after = model.named_params()
        moved = [k for k in before if not np.array_equal(before[k], after[k].data)]
        assert any(k.startswith("backbone.") for k in moved)
        assert any(k.startswith("head.") for k in moved)

    def test_score_head_is_untouched(self):
        model = build_model("tiny", seed=1)
        before = {k: p.data.copy() for k, p in model.named_params().items()
                  if k.startswith("score.")}
        train_stage1(model, tiny_data(), self.small_cfg(iters=2))
        for k, old in before.items():
            assert np.array_equal(old, model.named_params()[k].data)

    def test_first_loss_is_reproducible(self):
        losses = []
        for _ in range(2):
            model = build_model("tiny", seed=2)
            curve = train_stage1(model, tiny_data(), self.small_cfg(iters=1))
            losses.append(curve[0][1])
        assert losses[0] == losses[1]

    def test_full_run_is_deterministic(self):
        finals = []
        for _ in range(2):
            model = build_model("tiny", seed=3)
            train_stage1(model, tiny_data(), self.small_cfg(iters=2))
            finals.append({k: p.data.copy()
                           for k, p in model.named_params().items()})
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])

    def test_skipped_input_gradients_leave_parameter_gradients_unchanged(
        self, monkeypatch
    ):
        # vjps return None for inputs that need no gradient; computing those
        # anyway must give every parameter the same gradient bits
        def run():
            model = build_model("tiny", seed=5)
            grads = []

            def keep(it, loss, gnorm):
                grads.append({k: p.grad.copy() for k, p in params.items()})

            params = {k: p for k, p in model.named_params().items()
                      if not k.startswith("score.")}
            curve = train_stage1(model, tiny_data(), self.small_cfg(iters=2),
                                 on_iteration=keep)
            return curve, grads

        skipped = run()
        record = ad._record

        def record_computing_every_input(name, out, inputs, vjp):
            def every_input(g):
                flags = [t.requires_grad for t in inputs]
                for t in inputs:
                    t.requires_grad = True
                try:
                    return vjp(g)
                finally:
                    for t, flag in zip(inputs, flags):
                        t.requires_grad = flag
            return record(name, out, inputs, every_input)

        monkeypatch.setattr(ad, "_record", record_computing_every_input)
        full = run()
        assert skipped[0] == full[0]
        for a, b in zip(skipped[1], full[1]):
            assert a.keys() == b.keys()
            for k in a:
                assert np.array_equal(a[k], b[k]), k

    def test_leaf_gradients_match_a_backward_that_keeps_its_records(self):
        def reference_backward(tape, loss):
            # the same walk, keeping every record and every intermediate
            # gradient alive to the end
            loss.grad = np.ones_like(loss.data)
            for _, out, inputs, vjp in reversed(tape._entries):
                if out.grad is None:
                    continue
                for t, gi in zip(inputs, vjp(out.grad)):
                    if gi is None or not t.requires_grad:
                        continue
                    if t.grad is None:
                        t.grad = np.array(gi, dtype=t.data.dtype, copy=True)
                    else:
                        t.grad += gi

        model = build_model("tiny", seed=9)
        params = model.named_params()
        batch = train._stage1_batch(model, tiny_data(), np.random.default_rng(9),
                                    self.small_cfg())
        grads = []
        for backward in (Tape.backward, reference_backward):
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                loss = train._stage1_loss(model, batch)
                backward(tape, loss)
            grads.append({k: p.grad for k, p in params.items()})
        released, kept = grads
        assert sum(g is not None for g in kept.values()) > 0
        for k, g in kept.items():
            if g is None:
                assert released[k] is None, k
            else:
                assert released[k].dtype == g.dtype and np.array_equal(released[k], g), k

    def test_backward_peak_stays_near_the_forward_peak(self):
        """Over one stage-1 step, the memory held above the pre-forward
        baseline by the backward pass and the AdamW step stays within 1.25x
        of the forward's; a tape that keeps every record to the end, and an
        AdamW that keeps its buffers, reach about 1.87x."""
        model = build_model("tiny", seed=10)
        cfg = self.small_cfg()
        opt = AdamW(*model.stage_params(False), cfg.weight_decay, cfg.clip_norm)
        batch = train._stage1_batch(model, tiny_data(), np.random.default_rng(10),
                                    cfg)
        opt.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = train._stage1_loss(model, batch)
                forward = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.reset_peak()
                tape.backward(loss)
                opt.step(1e-4)
                backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward > 0
        assert backward <= 1.25 * forward, (forward, backward)

    def test_nonfinite_loss_names_the_iteration(self):
        model = build_model("tiny", seed=4)
        first = next(iter(model.backbone.named_params().values()))
        first.data[...] = np.nan
        with pytest.raises(UsageError, match="iteration 0"):
            train_stage1(model, tiny_data(), self.small_cfg())

    def test_requires_data(self):
        with pytest.raises(ConfigError):
            train_stage1(build_model("tiny"), [], self.small_cfg())


class TestStage2:
    def cfg(self):
        return TrainConfig(stage1_iters=2, stage2_iters=3, batch_size=2,
                           seed=21)

    def test_only_score_params_move(self):
        model = build_model("tiny", seed=5)
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        curve = train_stage2_spm(model, tiny_data(), self.cfg())
        assert len(curve) == 3
        moved, frozen_ok = [], True
        for k, p in model.named_params().items():
            same = np.array_equal(before[k], p.data)
            if k.startswith("score."):
                if not same:
                    moved.append(k)
            else:
                frozen_ok = frozen_ok and same
        assert frozen_ok
        assert moved

    def test_frozen_params_receive_no_gradient(self):
        model = build_model("tiny", seed=6)
        train_stage2_spm(model, tiny_data(), self.cfg())
        for k, p in model.named_params().items():
            if not k.startswith("score."):
                assert p.grad is None

    def test_deterministic(self):
        finals = []
        for _ in range(2):
            model = build_model("tiny", seed=7)
            train_stage2_spm(model, tiny_data(), self.cfg())
            finals.append({k: p.data.copy()
                           for k, p in model.named_params().items()})
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])

    def test_one_frozen_forward_per_batch_matches_one_per_example(self):
        model = build_model("tiny", seed=9)
        data, cfg = tiny_data(), self.cfg()
        batched = train._scored_examples(model, data, np.random.default_rng(3),
                                         cfg, augment=True, count=3)
        rng = np.random.default_rng(3)
        for feat, tokens, gt, neg in batched:
            tmpl, patch, want_gt = train._draw_pair(model, data, rng, cfg,
                                                    augment=True)
            want_neg = train._negative_box(want_gt, rng)
            _, want_feat, want_tokens = model.forward_box(tmpl[None], patch[None])
            assert np.array_equal(gt, want_gt) and np.array_equal(neg, want_neg)
            assert np.array_equal(feat.data, want_feat.data[0])
            assert np.array_equal(tokens.data, want_tokens.data[0])

    def test_flip_labels_changes_the_outcome(self, monkeypatch):
        """The score head learns from its labels: inverting them (a wrapped
        score_loss) moves it elsewhere."""
        params = []
        for flip in (False, True):
            if flip:
                monkeypatch.setattr(train, "score_loss",
                                    lambda p, y, loss=train.score_loss: loss(p, 1.0 - y))
            model = build_model("tiny", seed=8)
            train_stage2_spm(model, tiny_data(), self.cfg())
            params.append(model.score.out.b.data.copy())
        assert not np.array_equal(params[0], params[1])


class TestSharedLoop:
    """Both stages run one step loop, so they fail the same way."""

    @pytest.mark.parametrize("stage, fit", [(1, train_stage1), (2, train_stage2_spm)])
    def test_fails_closed(self, stage, fit):
        cfg = TrainConfig(stage1_iters=2, stage2_iters=2, batch_size=2, seed=13)
        with pytest.raises(ConfigError, match=f"stage {stage} needs"):
            fit(build_model("tiny"), [], cfg)
        model = build_model("tiny", seed=4)
        params = model.named_params()
        stepped = [k for k in params if k.startswith("score.") == (stage == 2)]
        params[stepped[0]].data[...] = np.nan
        before = {k: p.data.copy() for k, p in params.items()}
        with pytest.raises(UsageError, match="iteration 0"):
            fit(model, tiny_data(), cfg)
        after = model.named_params()
        assert after.keys() == before.keys()
        for k, old in before.items():
            assert np.array_equal(after[k].data, old, equal_nan=True), k


def test_benchmark_entry_points_are_called(monkeypatch):
    """The benchmark tracer wraps these attributes by name; each must exist,
    and training must reach the train functions through this module's
    globals, or the tracer's spans stop landing."""
    from mixtrack import backbone

    calls = []
    entry_points = [
        (train, "make_training_pair"), (train, "crop_search"),
        (train, "crop_template"), (train, "loc_loss"), (train, "score_loss"),
        (train.AdamW, "step"), (backbone.PatchEmbed, "__call__"),
    ]
    for owner, attr in entry_points:
        def counted(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)  # raises if attr is gone
    cfg = TrainConfig(stage1_iters=1, stage2_iters=1, batch_size=1, seed=17)
    model = build_model("tiny", seed=1)
    train_stage1(model, tiny_data(1), cfg)
    train_stage2_spm(model, tiny_data(1), cfg)
    assert {attr for _, attr in entry_points} == set(calls)


class TestEvalHelpers:
    def test_spm_accuracy_bounds_and_determinism(self):
        model = build_model("tiny", seed=9)
        data = tiny_data(1)
        cfg = TrainConfig(seed=31)
        a = spm_accuracy(model, data, cfg, samples=4)
        b = spm_accuracy(model, data, cfg, samples=4)
        assert 0.0 <= a <= 1.0
        assert a == b

    @pytest.mark.parametrize("sequences, samples, match", [
        (0, 4, "at least one sequence"),
        (1, 0, "samples >= 1"),
        (1, -3, "samples >= 1"),
    ])
    def test_spm_accuracy_rejects_bad_arguments(self, sequences, samples, match):
        data = tiny_data(1)[:sequences]
        with pytest.raises(ConfigError, match=match):
            spm_accuracy(build_model("tiny"), data, TrainConfig(), samples=samples)

    def test_write_loss_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_loss_curve(path, [(0, 1.5, 0.1), (1, 1.25, 0.09)])
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss,grad_norm"
        assert len(lines) == 3
        assert lines[1].startswith("0,1.5,")
        assert not list(tmp_path.glob("*.tmp"))


# A short stage 1 must lift tiny far above an untrained model on held-out
# sequences.  Measured on 8 seeds (0-7) at 150 iterations, lr 1e-3, B=4, the
# corner head read mean success AUC 0.118-0.635 (0.129-0.635 before the
# redundant biases went), and untrained models read 0.017-0.023 (seeds 0-5).
# The floor sits near the geometric middle: the lowest trained run is 2.4x
# above it and the highest untrained one 2.2x below.
LEARNING_FLOOR = 0.05

# Then 150 stage-2 iterations at lr 1e-4 must teach the score head to tell
# held-out positives from negatives.  Measured on 8 seeds (0-7), each after
# that seed's stage 1 above, held-out spm_accuracy read 0.555-0.830 after
# stage 2 and exactly 0.500, chance, without it (the untrained score head
# puts every candidate on one side of 0.5).  The floor sits between: the
# lowest trained run is 0.025 above it and every untrained one 0.030 below.
SPM_FLOOR = 0.53


def held_out_data():
    return train.default_training_data(7, sequences=4, frames=60)


@pytest.fixture(scope="module")
def stage1_model():
    """Tiny after the guards' stage 1, shared by both learning guards."""
    model = build_model("tiny", seed=0)
    cfg = TrainConfig(seed=0, stage1_iters=150, batch_size=4, lr=1e-3)
    train_stage1(model, train.default_training_data(0), cfg)
    return model


def test_tiny_learns_to_track_held_out_sequences(stage1_model):
    tracker = Tracker(stage1_model)
    aucs = []
    for seq in held_out_data():
        boxes, _ = tracker.track(seq)
        aucs.append(success_auc(boxes, [seq.gt_corners(i) for i in range(len(seq.frames))]))
    assert np.mean(aucs) > LEARNING_FLOOR, aucs


def test_score_head_learns_to_judge_held_out_candidates(stage1_model):
    # a copy, so the tracking guard's model keeps its stage-1 score head
    model = build_model("tiny", seed=0)
    load_state(model, state_dict(stage1_model))
    cfg = TrainConfig(seed=0, stage2_iters=150, batch_size=4, lr=1e-4)
    train_stage2_spm(model, train.default_training_data(0), cfg)
    accuracy = spm_accuracy(model, held_out_data(), cfg)
    assert accuracy > SPM_FLOOR, accuracy
