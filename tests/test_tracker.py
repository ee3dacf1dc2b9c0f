import os
import subprocess
import sys

import numpy as np
import pytest

from mixtrack import data, model as mdl, tracker as trk
from mixtrack.autodiff import Tensor
from mixtrack.errors import ConfigError, ShapeError, UsageError


def tiny_tracker(**kw):
    m = mdl.build_model("tiny", seed=0)
    return trk.Tracker(m, **kw)


def small_sequence(frames=5, seed=3):
    cfg = data.SyntheticConfig(
        frame_size=(48, 64), object_size=(12, 12), frames=frames,
        translation=1.5, noise=0.01, distractors=1,
    )
    return data.generate_synthetic(cfg, seed)


class TestCropParams:
    def test_defaults(self):
        p = trk.CropParams()
        assert p.search_factor == 5.0
        assert p.template_factor == 2.0

    def test_factor_must_exceed_one(self):
        with pytest.raises(ConfigError):
            trk.CropParams(search_factor=1.0)
        with pytest.raises(ConfigError):
            trk.CropParams(template_factor=0.5)


class TestAffine:
    def test_box_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = trk.Affine(
                left=rng.uniform(-50, 50), top=rng.uniform(-50, 50),
                scale=rng.uniform(0.2, 4.0),
            )
            box = tuple(rng.uniform(0, 100, 4))
            back = a.box_to_patch(a.box_to_frame(box))
            assert np.allclose(back, box, atol=1e-9)

    def test_search_mapping_round_trip_within_half_pixel(self):
        frame = np.zeros((200, 300, 3), dtype=np.uint8)
        box = (80.0, 60.0, 144.0, 124.0)
        _, affine = trk.crop_search(frame, box, trk.CropParams(), 64)
        pts = [(100.0, 90.0), (80.0, 60.0), (143.0, 123.0)]
        for x, y in pts:
            bx = affine.box_to_patch((x, y, x, y))
            fx = affine.box_to_frame(bx)
            assert abs(fx[0] - x) < 0.5 and abs(fx[1] - y) < 0.5


class TestCropping:
    def test_factor_five_on_64_box_is_identity_region(self):
        # side = 5 * 64 = 320 and output 320: source pixels pass through
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 256, (400, 400, 3), dtype=np.uint8)
        box = (168.0, 168.0, 232.0, 232.0)  # 64x64 centered at (200, 200)
        patch, affine = trk.crop_search(frame, box, trk.CropParams(), 320)
        assert affine.scale == 1.0
        want = frame[40:360, 40:360].astype(np.float32) / 255.0
        got = patch.transpose(1, 2, 0)
        assert np.allclose(got, want, atol=1e-6)

    def test_template_factor_two_side(self):
        assert trk._square_side((10.0, 10.0, 50.0, 50.0), 2.0, "template_factor") == 80.0

    def test_degenerate_box_minimum_side(self):
        assert trk._square_side((5.0, 5.0, 5.0, 5.0), 5.0, "search_factor") == 16.0

    def test_out_of_frame_filled_with_mean(self):
        frame = np.full((40, 40, 3), 100, dtype=np.uint8)
        frame[:, :, 1] = 200
        box = (0.0, 0.0, 8.0, 8.0)  # corner box: crop reaches far outside
        patch, _ = trk.crop_search(frame, box, trk.CropParams(), 40)
        mean = frame.astype(np.float32).mean(axis=(0, 1)) / 255.0
        assert np.allclose(patch[:, 0, 0], mean, atol=1e-6)

    def test_crop_shape_exact(self):
        frame = np.zeros((30, 50, 3), dtype=np.uint8)
        patch = trk.crop_template(frame, (2.0, 2.0, 10.0, 10.0), 2.0, 32)
        assert patch.shape == (3, 32, 32)
        assert patch.dtype == np.float32


def reference_bilinear_crop(frame, left, top, side, out_size):
    """The whole-frame crop that _bilinear_crop replaced, kept as its oracle.

    frame is [H, W, 3] uint8; the result is [3, out, out] float32 in [0, 1].
    Samples outside the frame blend toward the per-channel mean color.
    """
    img = frame.astype(np.float32) / 255.0
    h, w = img.shape[:2]
    mean = (frame.mean(axis=(0, 1), dtype=np.float64) / 255.0).astype(np.float32)
    step = side / out_size
    # patch pixel centers in frame pixel-index space
    xs = left + (np.arange(out_size, dtype=np.float64) + 0.5) * step - 0.5
    ys = top + (np.arange(out_size, dtype=np.float64) + 0.5) * step - 0.5
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0).astype(np.float32)
    fy = (ys - y0).astype(np.float32)

    def gather(yi, xi):
        out = np.empty((out_size, out_size, 3), dtype=np.float32)
        out[:] = mean
        yy, xx = np.broadcast_arrays(yi[:, None], xi[None, :])
        mask = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out[mask] = img[yy[mask], xx[mask]]
        return out

    g00 = gather(y0, x0)
    g01 = gather(y0, x0 + 1)
    g10 = gather(y0 + 1, x0)
    g11 = gather(y0 + 1, x0 + 1)
    wx = fx[None, :, None]
    wy = fy[:, None, None]
    top_row = g00 * (1 - wx) + g01 * wx
    bot_row = g10 * (1 - wx) + g11 * wx
    patch = top_row * (1 - wy) + bot_row * wy
    return np.ascontiguousarray(patch.transpose(2, 0, 1))


def crop_squares(h, w, rng):
    """(left, top, side) squares over an h x w frame: inside, across each
    edge and corner, fully outside on each side, and below one pixel."""
    side = rng.uniform(0.3, 0.6) * min(h, w)
    mid_x, mid_y = (w - side) / 2, (h - side) / 2
    lo, hi_x, hi_y = -side / 3, w - 2 * side / 3, h - 2 * side / 3
    placed = [
        (mid_x, mid_y), (lo, mid_y), (hi_x, mid_y), (mid_x, lo), (mid_x, hi_y),
        (lo, lo), (hi_x, lo), (lo, hi_y), (hi_x, hi_y),
        (-side - 2, mid_y), (w + 2, mid_y), (mid_x, -side - 2), (mid_x, h + 2),
    ]
    squares = [(x + rng.uniform(-1, 1), y + rng.uniform(-1, 1), side)
               for x, y in placed]
    tiny = rng.uniform(0.2, 0.9)
    squares += [(rng.uniform(0, w - 1), rng.uniform(0, h - 1), tiny),
                (-tiny / 2, h - tiny / 2, tiny)]
    return squares


def uint8_frame(shape, fill, rng):
    if fill == "random":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    return np.full(shape, fill, dtype=np.uint8)


class TestCropMatchesWholeFrameOracle:
    @pytest.mark.parametrize("out_size", [32, 64])
    @pytest.mark.parametrize("shape, fill", [((480, 640, 3), "random"),
                                             ((96, 128, 3), "random"),
                                             ((96, 128, 3), 255)])
    def test_patch_is_bit_identical(self, shape, fill, out_size):
        rng = np.random.default_rng(7)
        frame = uint8_frame(shape, fill, rng)
        for left, top, side in crop_squares(shape[0], shape[1], rng):
            want = reference_bilinear_crop(frame, left, top, side, out_size)
            got = trk._bilinear_crop(frame, left, top, side, out_size)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert np.array_equal(got, want), (left, top, side)

    # 600 rows are two full uint16 chunks and a partial one, 514 exactly two
    @pytest.mark.parametrize("shape", [(480, 640, 3), (96, 128, 3),
                                       (200_000, 2, 3), (600, 7, 3), (514, 3, 3)])
    @pytest.mark.parametrize("fill", ["random", 0, 255])
    def test_frame_mean_is_exact(self, shape, fill):
        frame = uint8_frame(shape, fill, np.random.default_rng(11))
        want = frame.mean(axis=(0, 1), dtype=np.float64)
        assert np.array_equal(trk._frame_mean(frame), want)


class TestInit:
    def test_empty_box_rejected(self):
        t = tiny_tracker()
        frame = np.zeros((50, 50, 3), dtype=np.uint8)
        with pytest.raises(UsageError):
            t.init(frame, (10.0, 10.0, 10.0, 20.0))

    def test_online_slots_seeded_with_first_crop(self):
        t = tiny_tracker()
        seq = small_sequence()
        state = t.init(seq.frames[0], seq.gt_corners(0))
        assert state.templates.shape[:2] == (1, 2)
        assert np.array_equal(state.templates[0, 1], state.templates[0, 0])
        state.templates[0, 1] = 0.0
        assert not np.array_equal(state.templates[0, 1], state.templates[0, 0])

    def test_prev_box_set(self):
        t = tiny_tracker()
        seq = small_sequence()
        state = t.init(seq.frames[0], seq.gt_corners(0))
        assert state.prev_box == seq.gt_corners(0)


class TestStateMachine:
    def fake_crop(self, tag):
        return np.full((3, 2, 2), float(tag), dtype=np.float32)

    def run_scripted(self, scores, interval=3, threshold=0.5):
        t = tiny_tracker(update_interval=interval, score_threshold=threshold)
        state = trk.TrackerState(
            templates=np.stack([self.fake_crop(-1), self.fake_crop(-2)])[None],
            prev_box=(0.0, 0.0, 10.0, 10.0),
        )
        for i, s in enumerate(scores, start=1):
            crop = self.fake_crop(i)
            t._advance(state, lambda: crop, s, state.prev_box)
        return state

    def test_mutations_only_at_interval_boundaries(self):
        state = self.run_scripted([0.9] * 10, interval=3)
        assert state.mutation_frames == [1, 4, 7]
        # frames 1,4,7 are the first (not best-beating) candidates of each
        # completed interval: scores tie at 0.9 so the earliest wins

    def test_no_mutation_when_all_scores_low(self):
        state = self.run_scripted([0.49, 0.3, 0.2, 0.4, 0.45, 0.1], interval=3)
        assert state.mutation_frames == []
        assert state.templates[0, 1, 0, 0, 0] == -2.0

    def test_best_candidate_installed(self):
        state = self.run_scripted([0.3, 0.9, 0.7], interval=3)
        assert state.mutation_frames == [2]
        assert state.templates[0, 1, 0, 0, 0] == 2.0

    def test_tie_earliest_frame_wins(self):
        state = self.run_scripted([0.8, 0.8, 0.6], interval=3)
        assert state.mutation_frames == [1]
        assert state.templates[0, 1, 0, 0, 0] == 1.0

    def test_threshold_is_inclusive(self):
        state = self.run_scripted([0.5, 0.2, 0.2], interval=3)
        assert state.mutation_frames == [1]

    def test_counter_resets_after_boundary(self):
        # frame 4 opens the second interval, so it is that interval's
        # candidate although frame 1, installed at the boundary, scored more
        state = self.run_scripted([0.9, 0.2, 0.2, 0.3], interval=3)
        assert state.mutation_frames == [1]
        assert state.best_candidate[1:] == (0.3, 4)
        assert state.best_candidate[0][0, 0, 0] == 4.0

    def test_mutation_count_bounded(self):
        frames = 11
        state = self.run_scripted([0.9] * frames, interval=4)
        assert len(state.mutation_frames) <= frames // 4


class TestTrackerConfig:
    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            tiny_tracker(update_interval=0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            tiny_tracker(score_threshold=1.5)

    def test_cache_requires_asymmetric(self):
        m = mdl.build_model("tiny", mode="full", seed=0)
        with pytest.raises(ConfigError):
            trk.Tracker(m, use_template_cache=True)


class TestTracking:
    def test_replay_is_bit_exact(self):
        t = tiny_tracker(update_interval=2)
        seq = small_sequence(frames=5)
        boxes_a, scores_a = t.track(seq)
        boxes_b, scores_b = t.track(seq)
        assert boxes_a == boxes_b
        assert scores_a == scores_b

    def test_first_template_immutable_across_steps(self):
        t = tiny_tracker(update_interval=2, score_threshold=0.0)
        seq = small_sequence(frames=6)
        state = t.init(seq.frames[0], seq.gt_corners(0))
        before = state.templates[0, 0].copy()
        for i in range(1, len(seq.frames)):
            t.step(state, seq.frames[i])
        assert np.array_equal(state.templates[0, 0], before)
        assert len(state.mutation_frames) >= 1  # online slots did change

    def test_boxes_stay_inside_frame(self):
        t = tiny_tracker()
        seq = small_sequence(frames=5)
        out, _ = t.track(seq)
        fh, fw = seq.size
        for x0, y0, x1, y1 in out:
            assert 0.0 <= x0 <= x1 <= fw
            assert 0.0 <= y0 <= y1 <= fh

    def test_cached_path_matches_full_forward(self):
        # exactly, across a template install
        seq = small_sequence(frames=8)
        m = mdl.build_model("tiny", seed=0)
        kw = dict(update_interval=3, score_threshold=0.0)
        plain = trk.Tracker(m, **kw).track(seq)
        cached = trk.Tracker(m, use_template_cache=True, **kw).track(seq)
        assert plain == cached

    def test_candidate_cropped_only_when_kept(self, monkeypatch):
        t = tiny_tracker(update_interval=3, score_threshold=0.0)
        seq = small_sequence(frames=8)
        real_crop, crops = trk.crop_template, []

        def counting_crop(*args):
            crops.append(real_crop(*args))
            return crops[-1]

        monkeypatch.setattr(trk, "crop_template", counting_crop)
        state = t.init(seq.frames[0], seq.gt_corners(0))
        kept, best = 0, None
        for i in range(1, len(seq.frames)):
            box, score = t.step(state, seq.frames[i])
            if best is None or score > best:
                kept, best = kept + 1, score
                want = real_crop(seq.frames[i], box, t.params.template_factor,
                                 t.model.config.template_size)
                assert np.array_equal(crops[-1], want)
            if i % 3 == 0:
                best = None
        # one crop at init, then one per kept candidate, and some frames
        # kept none
        assert len(crops) == 1 + kept
        assert kept < len(seq.frames) - 1

    def test_non_finite_prediction_raises_and_keeps_state(self, monkeypatch):
        t = tiny_tracker()
        seq = small_sequence(frames=3)
        forward_box = t.model.forward_box

        def nan_box(*args):
            box, feat, tmpl = forward_box(*args)
            return Tensor(np.full(box.shape, np.nan, np.float32)), feat, tmpl

        state = t.init(seq.frames[0], seq.gt_corners(0))
        t.step(state, seq.frames[1])
        before = (state.prev_box, state.frame_index, state.best_candidate[2])
        monkeypatch.setattr(t.model, "forward_box", nan_box)
        with pytest.raises(ShapeError, match="finite"):
            t.step(state, seq.frames[2])
        assert (state.prev_box, state.frame_index,
                state.best_candidate[2]) == before

    def test_scores_in_unit_interval(self):
        t = tiny_tracker()
        seq = small_sequence(frames=4)
        _, scores = t.track(seq)
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestStateOwnsTheCache:
    """Template features belong to one state's template stack; the Tracker
    holds no per-sequence state."""

    def counted(self, monkeypatch, t):
        calls = []
        real = t.model.backbone.forward_template

        def counting(templates):
            calls.append(1)
            return real(templates)

        monkeypatch.setattr(t.model.backbone, "forward_template", counting)
        return calls

    def test_interleaved_states_compute_features_once_per_stack(self, monkeypatch):
        t = tiny_tracker(update_interval=3, score_threshold=0.0,
                         use_template_cache=True)
        seqs = [small_sequence(frames=8, seed=3), small_sequence(frames=8, seed=4)]
        alone = [tiny_tracker(update_interval=3, score_threshold=0.0).track(s)[0]
                 for s in seqs]
        calls = self.counted(monkeypatch, t)
        states = [t.init(s.frames[0], s.gt_corners(0)) for s in seqs]
        boxes = [[s.gt_corners(0)] for s in seqs]
        for i in range(1, 8):
            for seq, state, out in zip(seqs, states, boxes):
                out.append(t.step(state, seq.frames[i])[0])
        installs = sum(len(s.mutation_frames) for s in states)
        assert installs == 4  # each state installs at frames 3 and 6
        assert len(calls) == len(states) + installs
        assert boxes == alone

    def test_install_drops_only_its_own_cache(self):
        t = tiny_tracker(use_template_cache=True)
        seqs = [small_sequence(seed=3), small_sequence(seed=4)]
        a, b = [t.init(s.frames[0], s.gt_corners(0)) for s in seqs]
        for state, seq in ((a, seqs[0]), (b, seqs[1])):
            t.step(state, seq.frames[1])
        kept = b.cache
        assert a.cache is not None and kept is not None
        trk.maybe_update_template(a, 0.0)
        assert a.mutation_frames == [1]
        assert a.cache is None and b.cache is kept

    def test_track_leaves_the_tracker_unchanged(self):
        t = tiny_tracker(update_interval=2, score_threshold=0.0,
                         use_template_cache=True)
        before = dict(vars(t))
        assert set(before) == {"model", "params", "update_interval",
                               "score_threshold", "use_template_cache"}
        t.track(small_sequence(frames=5))
        assert vars(t).keys() == before.keys()
        assert all(vars(t)[k] is v for k, v in before.items())


class TestLoadedSequence:
    """A sequence loaded from disk maps its frames on access; tracking it
    must match the in-memory sequence it was saved from."""

    @pytest.mark.parametrize("cache", [False, True])
    def test_tracks_bit_identically_to_in_memory(self, tmp_path, cache):
        seq = small_sequence(frames=8)
        data.save_sequence(tmp_path / "seq", seq)
        loaded = data.load_sequence(tmp_path / "seq")
        kw = dict(update_interval=3, score_threshold=0.0, use_template_cache=cache)
        assert tiny_tracker(**kw).track(loaded) == tiny_tracker(**kw).track(seq)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_track_holds_no_frame_open(self, tmp_path):
        # each live mapped frame holds a duplicated file descriptor
        data.save_sequence(tmp_path / "seq", small_sequence(frames=6))
        loaded = data.load_sequence(tmp_path / "seq")
        before = len(os.listdir("/proc/self/fd"))
        during = []
        tiny_tracker().track(
            loaded, on_frame=lambda *_: during.append(len(os.listdir("/proc/self/fd"))))
        assert len(os.listdir("/proc/self/fd")) == before
        assert during == [before] * 5


def test_tiny_bits_do_not_depend_on_blas_threads():
    # tracking, cached and uncached and with template installs, and a short
    # training run of the tiny preset give the same bits with one and with
    # two OpenBLAS threads
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from mixtrack import data, model, tracker, train\n"
        "def digest(values):\n"
        "    return hashlib.sha256(np.asarray(values, np.float64).tobytes()).hexdigest()\n"
        "seq = data.generate_synthetic(data.SyntheticConfig(frames=41), 3)\n"
        "m = model.build_model('tiny', seed=3)\n"
        "for cache in (False, True):\n"
        "    t = tracker.Tracker(m, update_interval=10, score_threshold=0.0,\n"
        "                        use_template_cache=cache)\n"
        "    boxes, scores = t.track(seq)\n"
        "    print(digest(boxes), digest(scores))\n"
        "cfg = train.TrainConfig(seed=3, stage1_iters=10, stage2_iters=3)\n"
        "sets = train.default_training_data(3, sequences=2)\n"
        "curves = train.train_stage1(m, sets, cfg) + train.train_stage2_spm(m, sets, cfg)\n"
        "print(digest(curves), digest(np.concatenate(\n"
        "    [p.data.ravel() for p in m.named_params().values()])))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdl.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 6
    assert outputs[0] == outputs[1]
