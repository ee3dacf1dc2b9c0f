import os

import numpy as np
import pytest

from mixtrack import boxes, data
from mixtrack.errors import ConfigError, ParseError, ShapeError


def small_cfg(**kw):
    defaults = dict(
        frame_size=(48, 64), object_size=(12, 12), frames=6, translation=2.0,
        noise=0.01, distractors=1,
    )
    defaults.update(kw)
    return data.SyntheticConfig(**defaults)


class TestSyntheticConfig:
    def test_object_must_fit(self):
        with pytest.raises(ConfigError):
            data.SyntheticConfig(frame_size=(32, 32), object_size=(40, 8))

    def test_needs_two_frames(self):
        with pytest.raises(ConfigError):
            small_cfg(frames=1)

    def test_negative_amplitude(self):
        with pytest.raises(ConfigError):
            small_cfg(translation=-1.0)


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        a = data.generate_synthetic(cfg, 5)
        b = data.generate_synthetic(cfg, 5)
        assert a.gt == b.gt
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa, fb)

    def test_different_seeds_differ(self):
        cfg = small_cfg()
        a = data.generate_synthetic(cfg, 1)
        b = data.generate_synthetic(cfg, 2)
        assert any(
            not np.array_equal(fa, fb) for fa, fb in zip(a.frames, b.frames)
        )

    def test_zero_motion_keeps_box_constant(self):
        cfg = small_cfg(translation=0.0, scale_jitter=0.0)
        seq = data.generate_synthetic(cfg, 3)
        assert all(g == seq.gt[0] for g in seq.gt)

    def test_label_pixels_show_target_texture(self):
        # the target is drawn last: inside the gt box the frame must contain
        # both checkerboard colors, so distractors cannot have overwritten it
        cfg = small_cfg(distractors=4, noise=0.0, frames=8)
        seq = data.generate_synthetic(cfg, 7)
        for frame, (x, y, w, h) in zip(seq.frames, seq.gt):
            x0, y0 = int(x), int(y)
            inside = frame[
                max(0, y0) : y0 + int(h), max(0, x0) : x0 + int(w)
            ]
            colors = np.unique(inside.reshape(-1, 3), axis=0)
            assert len(colors) >= 2

    def test_boxes_stay_mostly_inside(self):
        cfg = small_cfg(translation=50.0, frames=30)
        seq = data.generate_synthetic(cfg, 11)
        fh, fw = cfg.frame_size
        for x, y, w, h in seq.gt:
            inter_w = min(x + w, fw) - max(x, 0.0)
            inter_h = min(y + h, fh) - max(y, 0.0)
            assert inter_w * inter_h >= 0.5 * w * h

    def test_frames_are_uint8(self):
        seq = data.generate_synthetic(small_cfg(), 0)
        assert all(f.dtype == np.uint8 for f in seq.frames)
        assert seq.size == (48, 64)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        data.write_ppm(path, img)
        assert np.array_equal(data.read_ppm(path), img)

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ShapeError):
            data.write_ppm(tmp_path / "y.ppm", np.zeros((4, 4, 3)))

    def test_rejects_non_ppm(self, tmp_path):
        p = tmp_path / "z.ppm"
        p.write_bytes(b"JFIF....")
        with pytest.raises(ParseError):
            data.read_ppm(p)

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(ParseError):
            data.read_ppm(p)

    def test_rejects_empty_image(self, tmp_path):
        p = tmp_path / "e.ppm"
        p.write_bytes(b"P6\n0 4\n255\n")
        with pytest.raises(ParseError, match="empty"):
            data.read_ppm(p)

    def test_header_comment_and_trailing_bytes(self, tmp_path):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n3 2\n255\n" + img.tobytes() + b"xx")
        assert np.array_equal(data.read_ppm(p), img)


class TestSequenceIo:
    def test_save_load_round_trip(self, tmp_path):
        seq = data.generate_synthetic(small_cfg(), 9)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        back = data.load_sequence(d)
        assert back.gt == seq.gt
        for fa, fb in zip(back.frames, seq.frames):
            assert np.array_equal(fa, fb)

    def test_gt_line_arithmetic(self, tmp_path):
        d = tmp_path / "seq"
        os.makedirs(d)
        frame = np.zeros((80, 80, 3), dtype=np.uint8)
        data.write_ppm(d / "00000001.ppm", frame)
        data.write_ppm(d / "00000002.ppm", frame)
        (d / "groundtruth.txt").write_text("10.5,20.0,30.0,40.0\n")
        seq = data.load_sequence(d)
        assert seq.gt_corners(0) == (10.5, 20.0, 40.5, 60.0)

    def test_malformed_line_names_line_number(self, tmp_path):
        seq = data.generate_synthetic(small_cfg(frames=3), 0)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        gt = (d / "groundtruth.txt").read_text().splitlines()
        gt[1] = "1.0,2.0,banana,4.0"
        (d / "groundtruth.txt").write_text("\n".join(gt) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            data.load_sequence(d)

    @pytest.mark.parametrize("bad", ["nan,1,2,3", "inf,1,2,3", "1,2,-5,3",
                                     "1,2,1e400,3", "1,2,3,-0.5"])
    def test_unscorable_line_names_line_number(self, tmp_path, bad):
        """The boxes-file rule: finite fields and w, h >= 0; a NaN row for
        an absent target is rejected like any other."""
        seq = data.generate_synthetic(small_cfg(frames=4), 0)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        gt = (d / "groundtruth.txt").read_text().splitlines()
        gt[2] = bad
        (d / "groundtruth.txt").write_text("\n".join(gt) + "\n")
        with pytest.raises(ParseError, match="line 3: .*groundtruth.txt"):
            data.load_sequence(d)

    def test_zero_size_box_loads(self, tmp_path):
        seq = data.generate_synthetic(small_cfg(frames=2), 0)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        (d / "groundtruth.txt").write_text("1,2,0,0\n-3,-4,5,6\n")
        assert data.load_sequence(d).gt == [(1.0, 2.0, 0.0, 0.0), (-3.0, -4.0, 5.0, 6.0)]

    def test_missing_frame_names_index(self, tmp_path):
        seq = data.generate_synthetic(small_cfg(frames=4), 0)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        os.remove(d / "00000003.ppm")
        with pytest.raises(ParseError, match="frame 3"):
            data.load_sequence(d)

    def test_count_mismatch(self, tmp_path):
        seq = data.generate_synthetic(small_cfg(frames=4), 0)
        d = tmp_path / "seq"
        data.save_sequence(d, seq)
        gt = (d / "groundtruth.txt").read_text().splitlines()
        (d / "groundtruth.txt").write_text("\n".join(gt[:2]) + "\n")
        with pytest.raises(ParseError):
            data.load_sequence(d)


def saved_sequence(tmp_path, frames=4):
    seq = data.generate_synthetic(small_cfg(frames=frames), 9)
    d = tmp_path / "seq"
    data.save_sequence(d, seq)
    return seq, d


class TestStreamedFrames:
    def test_frames_are_read_only_views(self, tmp_path):
        seq, d = saved_sequence(tmp_path)
        back = data.load_sequence(d)
        assert len(back.frames) == len(seq.frames)
        frame = back.frames[2]
        assert frame.dtype == np.uint8 and frame.shape == (48, 64, 3)
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            frame[0, 0, 0] = 1
        assert np.array_equal(back.frames[-1], seq.frames[-1])

    def test_slices_are_lists_of_frames(self, tmp_path):
        seq, d = saved_sequence(tmp_path)
        back = data.load_sequence(d)
        part = back.frames[1:3]
        assert isinstance(part, list) and len(part) == 2
        for got, want in zip(part, seq.frames[1:3]):
            assert np.array_equal(got, want)
        short = data.Sequence(back.frames[:2], back.gt[:2])
        assert short.size == (48, 64)

    def test_frame_paths_are_immutable(self, tmp_path):
        _, d = saved_sequence(tmp_path)
        frames = data.load_sequence(d).frames
        with pytest.raises(TypeError):
            frames[0] = np.zeros((48, 64, 3), np.uint8)
        with pytest.raises(AttributeError):
            frames.extra = 1

    @pytest.mark.parametrize("damage", [
        lambda raw: b"",
        lambda raw: b"P5" + raw[2:],
        lambda raw: raw.replace(b"\n255\n", b"\n65535\n", 1),
        lambda raw: raw[: len(raw) // 2],
        lambda raw: b"P6 x" + raw[4:],
        lambda raw: b"P6\n#" + b"c" * 500,
        lambda raw: b"P6\n" + b"9" * 5000 + raw[3:],
    ], ids=["empty", "bad-magic", "bad-maxval", "truncated-pixels",
            "bad-header", "comment-to-the-end", "number-too-long"])
    def test_bad_frame_file_fails_at_load(self, tmp_path, damage):
        _, d = saved_sequence(tmp_path)
        p = d / "00000003.ppm"
        p.write_bytes(damage(p.read_bytes()))
        with pytest.raises(ParseError, match="00000003.ppm"):
            data.load_sequence(d)

    def test_frame_truncated_after_load_fails_on_access(self, tmp_path):
        seq, d = saved_sequence(tmp_path)
        back = data.load_sequence(d)
        p = d / "00000002.ppm"
        with open(p, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(ParseError, match="truncated"):
            back.frames[1]
        assert np.array_equal(back.frames[2], seq.frames[2])

    def test_load_maps_no_frame(self, tmp_path, monkeypatch):
        seq, d = saved_sequence(tmp_path)

        def no_map(*args, **kwargs):
            raise AssertionError("a frame was mapped at load")

        monkeypatch.setattr(data.mmap, "mmap", no_map)
        back = data.load_sequence(d)
        assert back.size == (48, 64) and len(back.frames) == len(seq.frames)
        monkeypatch.undo()
        assert np.array_equal(back.frames[1], seq.frames[1])

    @pytest.mark.parametrize("comment", [10, 100, 5000])
    def test_header_comment_past_the_first_read_loads(self, tmp_path, comment):
        seq, d = saved_sequence(tmp_path)
        p = d / "00000002.ppm"
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n64 48\n")
        p.write_bytes(b"P6\n#" + b"c" * comment + b"\n" + raw[3:])
        back = data.load_sequence(d)
        assert np.array_equal(back.frames[1], seq.frames[1])

    def test_frame_of_another_shape_fails_at_load(self, tmp_path):
        _, d = saved_sequence(tmp_path)
        data.write_ppm(d / "00000003.ppm", np.zeros((48, 63, 3), np.uint8))
        with pytest.raises(ShapeError, match="00000003.ppm"):
            data.load_sequence(d)

    def test_frame_replaced_by_another_shape_fails_on_access(self, tmp_path):
        seq, d = saved_sequence(tmp_path)
        back = data.load_sequence(d)
        data.write_ppm(d / "00000002.ppm", np.zeros((47, 64, 3), np.uint8))
        with pytest.raises(ParseError, match="00000002.ppm"):
            back.frames[1]
        assert np.array_equal(back.frames[2], seq.frames[2])

    @pytest.mark.parametrize("gt_lines", ["every frame", "one"])
    def test_saving_a_shorter_sequence_removes_stale_frames(self, tmp_path, gt_lines):
        _, d = saved_sequence(tmp_path, frames=6)
        (d / "notes.txt").write_text("kept")
        short = data.generate_synthetic(small_cfg(frames=4), 3)
        if gt_lines == "one":
            short = data.Sequence(short.frames, short.gt[:1])
        data.save_sequence(d, short)
        assert sorted(os.listdir(d)) == [f"{i:08d}.ppm" for i in range(1, 5)] + [
            "groundtruth.txt", "notes.txt"]
        back = data.load_sequence(d)
        assert len(back.frames) == 4 and back.gt == short.gt
        for got, want in zip(back.frames, short.frames):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["cover.ppm", "00000005a.ppm", "x00000005.ppm"])
    def test_a_ppm_not_named_by_a_number_is_not_a_frame(self, tmp_path, name):
        seq, d = saved_sequence(tmp_path)
        data.write_ppm(d / name, np.zeros((8, 8, 3), np.uint8))
        back = data.load_sequence(d)
        assert len(back.frames) == 4 and back.size == (48, 64)
        for got, want in zip(back.frames, seq.frames):
            assert np.array_equal(got, want)

    def test_a_gap_in_the_numbered_frames_is_a_missing_frame(self, tmp_path):
        _, d = saved_sequence(tmp_path)
        (d / "00000003.ppm").rename(d / "00000007.ppm")
        with pytest.raises(ParseError, match="missing frame 3"):
            data.load_sequence(d)

    def test_saving_a_loaded_sequence_over_itself_keeps_it(self, tmp_path):
        seq, d = saved_sequence(tmp_path)
        data.save_sequence(d, data.load_sequence(d))
        back = data.load_sequence(d)
        for got, want in zip(back.frames, seq.frames):
            assert np.array_equal(got, want)


class TestMetrics:
    def test_perfect_predictions(self):
        gt = [(10.0, 10.0, 30.0, 30.0)] * 5
        auc = data.success_auc(gt, gt)
        # iou 1.0 beats every threshold except t = 1.0 itself
        assert abs(auc - 100.0 / 101.0) < 1e-12
        assert data.precision(gt, gt) == 1.0

    def test_disjoint_predictions(self):
        gt = [(0.0, 0.0, 5.0, 5.0)] * 4
        pred = [(50.0, 50.0, 60.0, 60.0)] * 4
        assert data.success_auc(pred, gt) == 0.0
        assert data.precision(pred, gt) == 0.0

    def test_half_perfect(self):
        gt = [(0.0, 0.0, 10.0, 10.0)] * 4
        pred = gt[:2] + [(90.0, 90.0, 95.0, 95.0)] * 2
        auc = data.success_auc(pred, gt)
        assert abs(auc - 0.5 * (100.0 / 101.0)) < 1e-12

    def test_strict_inequality_at_threshold(self):
        # iou exactly 0.5: counts only for thresholds strictly below
        gt = [(0.0, 0.0, 2.0, 1.0)]
        pred = [(0.0, 0.0, 1.0, 1.0)]  # iou = 0.5
        auc = data.success_auc(pred, gt)
        assert abs(auc - 50.0 / 101.0) < 1e-12

    def test_monotone_in_iou(self):
        gt = [(0.0, 0.0, 10.0, 10.0)] * 3
        worse = [(20.0, 0.0, 30.0, 10.0), gt[1], gt[2]]
        better = [(5.0, 0.0, 15.0, 10.0), gt[1], gt[2]]
        assert data.success_auc(better, gt) >= data.success_auc(worse, gt)

    def test_precision_threshold(self):
        gt = [(0.0, 0.0, 10.0, 10.0)] * 2
        pred = [(19.0, 0.0, 29.0, 10.0), (25.0, 0.0, 35.0, 10.0)]
        # center offsets 19 and 25 px against the 20 px gate
        assert data.precision(pred, gt) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            data.success_auc([(0, 0, 1, 1)], [])

    def test_reordering_frames_leaves_scores_unchanged(self):
        rng = np.random.default_rng(4)
        gt = [tuple(v) for v in rng.uniform(0, 50, (6, 4))]
        gt = [(x, y, x + w + 5, y + h + 5) for x, y, w, h in gt]
        pred = [
            (x + rng.uniform(-3, 3), y + rng.uniform(-3, 3), x1, y1)
            for x, y, x1, y1 in gt
        ]
        perm = [3, 1, 5, 0, 2, 4]
        a = data.success_auc(pred, gt)
        b = data.success_auc([pred[i] for i in perm], [gt[i] for i in perm])
        assert a == b
