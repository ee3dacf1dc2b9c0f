import random
import shutil
import warnings
import zlib

import numpy as np
import pytest

from mixtrack import checkpoint as ck
from mixtrack import cli
from mixtrack.backbone import Backbone
from mixtrack.boxes import to_xywh
from mixtrack.checkpoint import load_checkpoint
from mixtrack.config import RunConfig, format_run_config
from mixtrack.data import (
    Sequence,
    SyntheticConfig,
    generate_synthetic,
    load_sequence,
    save_sequence,
)
from mixtrack.tracker import Tracker

from test_checkpoint import overflowing_shape_checkpoint

MICRO_CONFIG = """\
preset = tiny
stage1_iters = 2
stage2_iters = 1
batch_size = 1
update_interval = 3
seed = 5
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def seq_dir(work):
    cfg = SyntheticConfig(frames=6, translation=2.0, distractors=1)
    seq = generate_synthetic(cfg, seed=42)
    path = work / "seq"
    save_sequence(path, seq)
    return path


def assert_user_error(capsys, rc, name):
    """Exit code 1 and a one-line ``error:`` naming the file, no traceback."""
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert name in err
    assert "Traceback" not in err


UNDECODABLE = b"\xff\xfepreset = tiny\n"


@pytest.fixture(scope="module")
def ckpt(work):
    cfg_path = work / "run.cfg"
    cfg_path.write_text(MICRO_CONFIG)
    out = work / "model.ckpt"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


class TestCost:
    def test_preset_table(self, capsys):
        assert cli.main(["cost", "--preset", "tiny"]) == 0
        text = capsys.readouterr().out
        assert "stage1" in text and "stage3" in text
        assert "total" in text
        assert "params" in text

    def test_from_config_file(self, work, capsys):
        path = work / "cost.cfg"
        path.write_text("preset = tiny\n")
        assert cli.main(["cost", "--config", str(path)]) == 0
        assert "preset tiny" in capsys.readouterr().out

    def test_full_attention_flag(self, capsys):
        assert cli.main(["cost", "--preset", "tiny",
                         "--attention", "full"]) == 0
        assert "attention full" in capsys.readouterr().out


class TestTrain:
    def test_writes_checkpoint_and_curves(self, work, ckpt):
        arrays, text = load_checkpoint(ckpt)
        assert any(k.startswith("backbone.") for k in arrays)
        assert "preset = tiny" in text
        for stage in (1, 2):
            curve = work / f"model.stage{stage}.csv"
            lines = curve.read_text().splitlines()
            assert lines[0] == "iter,loss,grad_norm"
            assert len(lines) > 1

    def test_bad_config_key_fails(self, work, capsys):
        path = work / "bad.cfg"
        path.write_text("presett = tiny\n")
        rc = cli.main(["train", "--config", str(path),
                       "--out", str(work / "x.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_fails(self, work, capsys):
        rc = cli.main(["train", "--config", str(work / "absent.cfg"),
                       "--out", str(work / "x.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_config_fails(self, work, capsys):
        path = work / "utf16.cfg"
        path.write_bytes(UNDECODABLE)
        rc = cli.main(["train", "--config", str(path),
                       "--out", str(work / "x.ckpt")])
        assert_user_error(capsys, rc, "utf16.cfg")

    def test_negative_seed_fails(self, work, ckpt, seq_dir, capsys):
        path = work / "negative-seed.cfg"
        path.write_text(MICRO_CONFIG.replace("seed = 5", "seed = -1"))
        rc = cli.main(["train", "--config", str(path),
                       "--out", str(work / "x.ckpt")])
        assert_user_error(capsys, rc, "seed must be >= 0, got -1")
        rc = cli.main(["track", "--checkpoint", str(ckpt), "--config", str(path),
                       "--sequence", str(seq_dir), "--out", str(work / "x.csv")])
        assert_user_error(capsys, rc, "seed must be >= 0, got -1")


class TestTrack:
    def test_writes_one_line_per_frame(self, work, ckpt, seq_dir):
        out = work / "boxes.csv"
        rc = cli.main(["track", "--checkpoint", str(ckpt),
                       "--sequence", str(seq_dir), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines, start=1):
            parts = line.split(",")
            assert len(parts) == 6
            assert int(parts[0]) == i
            frame, x, y, w, h, score = map(float, parts)
            assert w > 0 and h > 0
            assert 0.0 <= score <= 1.0

    def test_rerun_is_byte_identical(self, work, ckpt, seq_dir):
        a, b = work / "rerun_a.csv", work / "rerun_b.csv"
        for out in (a, b):
            assert cli.main(["track", "--checkpoint", str(ckpt),
                             "--sequence", str(seq_dir),
                             "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("attention", ["asymmetric", "full"])
    def test_caches_templates_under_asymmetric_attention(
            self, work, seq_dir, monkeypatch, attention):
        """Rows equal to an uncached Tracker's; templates that installs keep
        changing are recomputed, and only under asymmetric attention."""
        cfg = RunConfig(preset="tiny", attention=attention,
                        update_interval=2, score_threshold=0.0, seed=3)
        model = cfg.build_model()
        path = work / f"{attention}.ckpt"
        ck.save_checkpoint(path, ck.state_dict(model),
                           config_text=format_run_config(cfg))
        passes = []
        forward_template = Backbone.forward_template

        def counted(bb, templates):
            passes.append(1)
            return forward_template(bb, templates)

        monkeypatch.setattr(Backbone, "forward_template", counted)
        out = work / f"{attention}.csv"
        assert cli.main(["track", "--checkpoint", str(path),
                         "--sequence", str(seq_dir), "--out", str(out)]) == 0
        # 5 tracked frames; installs after frames 2 and 4 renew the templates
        assert len(passes) == (3 if attention == "asymmetric" else 0)
        boxes, scores = Tracker(model, params=cfg.crop_params(), update_interval=2,
                                score_threshold=0.0).track(load_sequence(seq_dir))
        want = []
        for i, (box, score) in enumerate(zip(boxes, scores), start=1):
            x, y, w, h = to_xywh(box)
            want.append(f"{i},{x:.6f},{y:.6f},{w:.6f},{h:.6f},{score:.6f}")
        assert out.read_text().splitlines() == want

    @pytest.mark.parametrize("first", [
        "50,39,-24,24", "50,39,inf,24", "nan,nan,24,24",
    ])
    def test_bad_first_box_fails(self, work, ckpt, seq_dir, capsys, first):
        """A box that cannot be scored fails at load, naming its line."""
        self.check_first_box(work, ckpt, seq_dir, capsys, first,
                             "line 1: " + str(work / "seq_bad_first_box" / "groundtruth.txt"))

    def test_zero_size_first_box_fails(self, work, ckpt, seq_dir, capsys):
        """A zero-size box loads, but the tracker cannot crop around it."""
        self.check_first_box(work, ckpt, seq_dir, capsys, "50,39,0,24",
                             "first box needs a finite, positive width and height")

    def check_first_box(self, work, ckpt, seq_dir, capsys, first, error):
        bad = work / "seq_bad_first_box"
        if not bad.exists():
            shutil.copytree(seq_dir, bad)
        lines = (seq_dir / "groundtruth.txt").read_text().splitlines()
        (bad / "groundtruth.txt").write_text("\n".join([first] + lines[1:]) + "\n")
        out = work / "bad_first_box.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["track", "--checkpoint", str(ckpt),
                           "--sequence", str(bad), "--out", str(out)])
        assert_user_error(capsys, rc, error)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("search_factor", "1e308"), ("template_factor", "1e308"),
        ("search_factor", "1e300"),
    ])
    def test_overflowing_crop_side_fails(self, work, ckpt, seq_dir, capsys, key, value):
        path = work / "huge-factor.cfg"
        path.write_text(MICRO_CONFIG + f"{key} = {value}\n")
        out = work / "huge_factor.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["track", "--checkpoint", str(ckpt), "--config", str(path),
                           "--sequence", str(seq_dir), "--out", str(out)])
        assert_user_error(capsys, rc, f"{key} = {float(value)} makes a crop side")
        assert not out.exists()

    def test_failed_write_leaves_no_temp_file(self, work, ckpt, seq_dir, capsys):
        out = work / "outdir"
        out.mkdir()
        rc = cli.main(["track", "--checkpoint", str(ckpt),
                       "--sequence", str(seq_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "Traceback" not in err
        assert f"'{out}'" in err and ".tmp" not in err
        assert list(work.glob("*.tmp")) == []
        assert out.is_dir() and list(out.iterdir()) == []

    def test_truncated_frame_fails(self, work, ckpt, seq_dir, capsys):
        broken = work / "seq_truncated"
        shutil.copytree(seq_dir, broken)
        frame = broken / "00000004.ppm"
        frame.write_bytes(frame.read_bytes()[:-7])
        rc = cli.main(["track", "--checkpoint", str(ckpt),
                       "--sequence", str(broken),
                       "--out", str(work / "nope.csv")])
        assert_user_error(capsys, rc, "00000004.ppm: truncated")

    def test_config_that_names_the_head_fails_and_config_file_overrides(
            self, work, ckpt, seq_dir, capsys):
        """A checkpoint written while run configs had a ``head`` key embeds
        ``head = corner``.  Tracking it names the unknown key and writes
        nothing; ``--config`` with a file that lacks the key tracks."""
        arrays, text = load_checkpoint(ckpt)
        assert "head" not in text
        old = work / "head-key.ckpt"
        ck.save_checkpoint(old, arrays, config_text=text.replace(
            "attention = ", "head = corner\nattention = "))
        out = work / "head-key.csv"
        argv = ["track", "--checkpoint", str(old), "--sequence", str(seq_dir),
                "--out", str(out)]
        assert_user_error(capsys, cli.main(argv), "unknown config key 'head'")
        assert not out.exists()
        cfg = work / "head-key.cfg"
        cfg.write_text(text)
        assert cli.main(argv + ["--config", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_checkpoint_shape_that_overflows_fails(self, work, seq_dir, capsys):
        path = work / "overflow.ckpt"
        path.write_bytes(overflowing_shape_checkpoint())
        out = work / "overflow.csv"
        rc = cli.main(["track", "--checkpoint", str(path),
                       "--sequence", str(seq_dir), "--out", str(out)])
        assert_user_error(capsys, rc, "truncated checkpoint")
        assert not out.exists()

    def test_checkpoint_with_corner_batch_norms_fails(self, work, ckpt, seq_dir, capsys):
        # the layout written while a frozen batch norm followed each corner
        # conv: bias-free convs, then the norm's gain and bias; no converter
        # reads it
        arrays, text = load_checkpoint(ckpt)
        former = {}
        for name, a in arrays.items():
            stem, _, leaf = name.rpartition(".")
            if stem.startswith("head.") and leaf == "b":
                former[f"{stem}.bn.gain"] = np.ones_like(a)
                former[f"{stem}.bn.bias"] = a
            else:
                former[name] = a
        path = work / "batch_norm.ckpt"
        ck.save_checkpoint(path, former, text)
        out = work / "batch_norm.csv"
        rc = cli.main(["track", "--checkpoint", str(path),
                       "--sequence", str(seq_dir), "--out", str(out)])
        assert_user_error(capsys, rc, "state mismatch")
        assert not out.exists()

    def test_truncated_checkpoint_fails(self, work, ckpt, seq_dir, capsys):
        broken = work / "broken.ckpt"
        broken.write_bytes(ckpt.read_bytes()[:-9])
        rc = cli.main(["track", "--checkpoint", str(broken),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "nope.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def crafted_checkpoint(ckpt, case):
    """Bytes of ckpt changed as ``case`` says, under a valid CRC."""
    arrays, text = load_checkpoint(ckpt)
    codes = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)
    if case == "undecodable config":
        codes = np.frombuffer(UNDECODABLE, dtype=np.uint8).astype(np.float32)
    elif case == "config value 288":
        # 288 wraps to a space in uint8, which the parser would accept
        codes[text.index(" ")] = 288.0
    elif case.startswith("nan "):
        arrays[case[4:]] = arrays[case[4:]].copy()  # loaded arrays are read-only
        arrays[case[4:]].flat[0] = np.nan
    blob = bytearray(ck.serialize({**arrays, ck.CONFIG_KEY: codes}, None)[:-4])
    if case == "undecodable name":
        blob[blob.index(b"backbone.")] = 0xFF
    elif case == "version 1":
        blob[4:8] = (1).to_bytes(4, "little")
    return bytes(blob) + (zlib.crc32(blob) & 0xFFFFFFFF).to_bytes(4, "little")


class TestCraftedCheckpoint:
    """Checkpoints that pass their CRC but cannot be decoded fail closed."""

    @pytest.mark.parametrize("case, message", [
        ("undecodable name", "entry name is not UTF-8"),
        ("undecodable config", "config text is not UTF-8"),
        ("config value 288", "config text holds values that are not bytes"),
        ("version 1", "unsupported version 1, expected 2"),
    ])
    def test_track_fails_with_a_checkpoint_error(self, work, ckpt, seq_dir, capsys,
                                                 case, message):
        path = work / "crafted.ckpt"
        path.write_bytes(crafted_checkpoint(ckpt, case))
        rc = cli.main(["track", "--checkpoint", str(path),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "nope.csv")])
        assert_user_error(capsys, rc, message)

    @pytest.mark.parametrize("command", ["track", "inspect"])
    @pytest.mark.parametrize("entry", ["score.out.b", "backbone.stage3.block0.mlp.fc2.w"])
    def test_non_finite_entry_fails_naming_it(self, work, ckpt, seq_dir, capsys,
                                              command, entry):
        path = work / "nan.ckpt"
        path.write_bytes(crafted_checkpoint(ckpt, f"nan {entry}"))
        out = work / f"nan-{command}"
        extra = ["--frame", "3"] if command == "inspect" else []
        rc = cli.main([command, "--checkpoint", str(path), "--sequence", str(seq_dir),
                       "--out", str(out)] + extra)
        assert_user_error(capsys, rc, f"entry {entry!r} holds non-finite values")
        assert not out.exists()

    def test_unchanged_rebuild_still_tracks(self, work, ckpt, seq_dir):
        path = work / "rebuilt.ckpt"
        path.write_bytes(crafted_checkpoint(ckpt, "none"))
        assert path.read_bytes() == ckpt.read_bytes()
        rc = cli.main(["track", "--checkpoint", str(path),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "rebuilt.csv")])
        assert rc == 0


class TestEval:
    def test_metrics_csv(self, work, ckpt, seq_dir):
        boxes = work / "boxes.csv"
        if not boxes.exists():
            assert cli.main(["track", "--checkpoint", str(ckpt),
                             "--sequence", str(seq_dir),
                             "--out", str(boxes)]) == 0
        out = work / "metrics.csv"
        rc = cli.main(["eval", "--boxes", str(boxes),
                       "--sequence", str(seq_dir), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sequence,auc,precision"
        name, auc, prec = lines[1].split(",")
        assert name == "seq"
        assert 0.0 <= float(auc) <= 1.0
        assert 0.0 <= float(prec) <= 1.0

    def test_row_count_mismatch_fails(self, work, seq_dir, capsys):
        short = work / "short.csv"
        short.write_text("1,0,0,5,5,0.9\n")
        rc = cli.main(["eval", "--boxes", str(short),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "m.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_row_fails(self, work, seq_dir, capsys):
        bad = work / "bad.csv"
        bad.write_text("1,2,3\n")
        rc = cli.main(["eval", "--boxes", str(bad),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "m.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row, field, value", [
        (2, 0, "3"),      # frames numbered 1, 3, 3, 9, ...
        (2, 1, "nan"),
        (4, 2, "inf"),
        (3, 3, "-1"),
        (6, 4, "-0.5"),
    ])
    def test_unscorable_row_fails(self, work, seq_dir, capsys, row, field, value):
        rows = [[str(i), "10", "12", "5", "6", "0.9"] for i in range(1, 7)]
        rows[row - 1][field] = value
        if field == 0:
            rows[2][0], rows[3][0] = "3", "9"
        bad = work / "unscorable.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        rc = cli.main(["eval", "--boxes", str(bad),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "m.csv")])
        assert_user_error(capsys, rc, f"line {row}:")

    @pytest.mark.parametrize("bad", ["nan,1,2,3", "inf,1,2,3", "1,2,-5,3",
                                     "1,2,1e400,3"])
    def test_unscorable_groundtruth_fails(self, work, seq_dir, capsys, bad):
        bad_seq = work / "unscorable-seq"
        shutil.rmtree(bad_seq, ignore_errors=True)
        shutil.copytree(seq_dir, bad_seq)
        gt = (bad_seq / "groundtruth.txt").read_text().splitlines()
        gt[2] = bad
        (bad_seq / "groundtruth.txt").write_text("\n".join(gt) + "\n")
        boxes = work / "gt-boxes.csv"
        boxes.write_text("".join(f"{i},10,12,5,6,0.9\n" for i in range(1, len(gt) + 1)))
        out = work / "gt-metrics.csv"
        rc = cli.main(["eval", "--boxes", str(boxes), "--sequence", str(bad_seq),
                       "--out", str(out)])
        assert_user_error(capsys, rc, "line 3:")
        assert not out.exists()

    def test_undecodable_boxes_fail(self, work, seq_dir, capsys):
        bad = work / "utf16.csv"
        bad.write_bytes(b"\xff\xfe1,0,0,5,5,0.9\n")
        rc = cli.main(["eval", "--boxes", str(bad),
                       "--sequence", str(seq_dir),
                       "--out", str(work / "m.csv")])
        assert_user_error(capsys, rc, "utf16.csv")

    def test_undecodable_groundtruth_fails(self, work, seq_dir, capsys):
        bad_seq = work / "utf16-seq"
        shutil.copytree(seq_dir, bad_seq)
        (bad_seq / "groundtruth.txt").write_bytes(b"\xff\xfe1,1,5,5\n")
        rc = cli.main(["eval", "--boxes", str(work / "boxes.csv"),
                       "--sequence", str(bad_seq),
                       "--out", str(work / "m.csv")])
        assert_user_error(capsys, rc, "groundtruth.txt")


@pytest.fixture(scope="module")
def one_box_seq(work):
    """A 3-frame sequence whose groundtruth.txt holds only the first box."""
    seq = generate_synthetic(SyntheticConfig(frames=3), seed=7)
    path = work / "one-box-seq"
    save_sequence(path, Sequence(seq.frames, seq.gt[:1]))
    return path


def test_eval_needs_a_box_for_every_frame(work, one_box_seq, capsys):
    boxes = work / "three.csv"
    boxes.write_text("".join(f"{i},10,12,5,6,0.9\n" for i in (1, 2, 3)))
    rc = cli.main(["eval", "--boxes", str(boxes),
                   "--sequence", str(one_box_seq), "--out", str(work / "m.csv")])
    assert_user_error(capsys, rc, "ground-truth box for every frame")


def test_inspect_needs_a_box_for_every_frame_it_reads(work, ckpt, one_box_seq, capsys):
    rc = cli.main(["inspect", "--checkpoint", str(ckpt),
                   "--sequence", str(one_box_seq), "--frame", "3",
                   "--out", str(work / "maps3")])
    assert_user_error(capsys, rc, "ground-truth box for every frame it reads")


class TestInspect:
    def test_writes_attention_maps(self, work, ckpt, seq_dir):
        out = work / "maps"
        rc = cli.main(["inspect", "--checkpoint", str(ckpt),
                       "--sequence", str(seq_dir), "--frame", "3",
                       "--out", str(out)])
        assert rc == 0
        named = sorted(p.name for p in out.glob("*.csv"))
        assert "search_to_template.csv" in named
        assert "search_to_search.csv" in named
        grid = np.loadtxt(out / "search_to_search.csv", delimiter=",")
        # tiny preset: 4x4 search queries over the halved 2x2 key grid
        assert grid.shape == (16, 4)
        sums = np.loadtxt(out / "search_to_template.csv", delimiter=",")
        assert sums.shape[0] == 16

    def test_frame_out_of_range_fails(self, work, ckpt, seq_dir, capsys):
        rc = cli.main(["inspect", "--checkpoint", str(ckpt),
                       "--sequence", str(seq_dir), "--frame", "99",
                       "--out", str(work / "maps2")])
        assert rc == 1
        assert "frame must lie in" in capsys.readouterr().err


# ----------------------------------------------------------- bad-input fuzz

# Inputs that once escaped as a traceback or as a boxes file eval rejects.
FUZZ_KNOWN = [
    ("gt", 0, "50,39,-24,24"),
    ("gt", 0, "50,39,inf,24"),
    ("gt", 0, "nan,nan,24,24"),
    ("config", "seed", "-1"),
]
FUZZ_NUMBERS = [
    "-24", "0", "-0", "0.5", "1", "-1", "200", "1e20", "-1e20", "1e308",
    "-1e308", "1e-300", "5e-324", "nan", "-nan", "inf", "-inf", "", "x", "0x10",
]
FUZZ_CONFIG = {
    "seed": ["-1", "-7", "0", "18446744073709551617", "1.5", "x"],
    "update_interval": ["0", "-3", "1", "nan"],
    "score_threshold": ["-0.1", "1.5", "nan", "inf", "0", "1"],
    "search_factor": ["1", "0.5", "-5", "1.0001", "1e308", "1e-300", "nan", "inf"],
    "template_factor": ["1", "0.5", "-5", "1.0001", "1e308", "1e-300", "nan", "inf"],
    "online_templates": ["-1", "0", "2", "1.5"],
    "attention": ["full", "asym", ""],
    "preset": ["nope", ""],
    "stage1_iters": ["0", "-1"],
    "lr": ["0", "-1e-4", "nan", "inf"],
    "decay_fraction": ["0", "1", "nan"],
    "flip": ["no", "maybe"],
}


def fuzz_cases(rng, n, gt_lines):
    """The known cases, then random one- or two-field changes of the first
    (mostly) or a later ground-truth line, or one run-config value."""
    cases = list(FUZZ_KNOWN)
    while len(cases) < n:
        if rng.random() < 0.6:
            line = 0 if rng.random() < 0.8 else rng.randrange(1, len(gt_lines))
            fields = gt_lines[line].split(",")
            for _ in range(rng.randint(1, 2)):
                fields[rng.randrange(4)] = rng.choice(FUZZ_NUMBERS)
            cases.append(("gt", line, ",".join(fields)))
        else:
            key = rng.choice(sorted(FUZZ_CONFIG))
            cases.append(("config", key, rng.choice(FUZZ_CONFIG[key])))
    return cases


def test_fuzzed_bad_input_exits_cleanly(tmp_path):
    """Mutated ground truth and run configs end in exit 0 or 1, never in an
    escaping exception, and every boxes file track writes passes eval."""
    seq = generate_synthetic(SyntheticConfig(frames=3), seed=7)
    seq_path = tmp_path / "seq"
    save_sequence(seq_path, seq)
    gt_lines = (seq_path / "groundtruth.txt").read_text().splitlines()
    base = dict(line.split(" = ") for line in MICRO_CONFIG.splitlines())
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MICRO_CONFIG)
    ckpt_path = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt_path)]) == 0
    boxes, metrics = tmp_path / "boxes.csv", tmp_path / "metrics.csv"
    for case in fuzz_cases(random.Random(20260), 150, gt_lines):
        kind, where, value = case
        lines, config = list(gt_lines), dict(base)
        (lines if kind == "gt" else config)[where] = value
        (seq_path / "groundtruth.txt").write_text("\n".join(lines) + "\n")
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        boxes.unlink(missing_ok=True)
        rc = cli.main(["track", "--checkpoint", str(ckpt_path), "--config", str(cfg_path),
                       "--sequence", str(seq_path), "--out", str(boxes)])
        assert rc in (0, 1), case
        if rc == 0:
            rc = cli.main(["eval", "--boxes", str(boxes), "--sequence", str(seq_path),
                           "--out", str(metrics)])
            assert rc == 0, (case, boxes.read_text())
        else:
            assert not boxes.exists(), case


FUZZ_BOX_FIELDS = [
    "0", "-0", "1", "2", "-1", "0.5", "1e308", "-1e308", "1e309", "5e-324",
    "nan", "inf", "-inf", "", "x", "0x10", "1_0", "9" * 5000,
]


def box_csv_cases(rng, n, rows):
    """Boxes csv texts: one or two fields of a row changed, a row dropped,
    repeated or split, or the file cut at a random byte."""
    cases = []
    while len(cases) < n:
        lines = [list(r) for r in rows]
        kind = rng.random()
        if kind < 0.6:
            row = rng.choice(lines)
            for _ in range(rng.randint(1, 2)):
                row[rng.randrange(6)] = rng.choice(FUZZ_BOX_FIELDS)
        elif kind < 0.8:
            i = rng.randrange(len(lines))
            op = rng.choice(("drop", "repeat", "split"))
            if op == "drop":
                del lines[i]
            elif op == "repeat":
                lines.insert(i, list(lines[i]))
            else:
                lines[i] = lines[i][:3] + [""] + lines[i][3:]
        text = "".join(",".join(r) + "\n" for r in lines)
        if kind >= 0.8:
            text = text[:rng.randrange(len(text))]
        cases.append(text)
    return cases


FUZZ_PPM_FIELDS = {
    "magic": [b"P5", b"P3", b"p6", b"P66", b"P", b"", b"\xff\xfe"],
    "size": [b"0", b"-1", b"1", b"2", b"x", b"1e2", b"", b"0x10",
             b"99999999999999999999", b"9" * 5000],
    "maxval": [b"0", b"1", b"254", b"256", b"65535", b"-255", b"", b"x", b"9" * 5000],
    "sep": [b"", b"\t", b"  ", b"\n# a comment\n", b"#", b"\x00"],
}


def ppm_cases(rng, n, width, height, pixels):
    """PPM files: magic, width, height, maxval or a separator of the
    header changed, the size off by one, or the file cut at a random byte."""
    cases = []
    while len(cases) < n:
        fields = [("magic", b"P6"), ("sep", b"\n"), ("size", str(width).encode()),
                  ("sep", b" "), ("size", str(height).encode()), ("sep", b"\n"),
                  ("maxval", b"255"), ("sep", b"\n")]
        kind = rng.random()
        if kind < 0.7:
            i = rng.randrange(len(fields))
            name = fields[i][0]
            fields[i] = (name, rng.choice(FUZZ_PPM_FIELDS[name]))
        elif kind < 0.85:
            i = rng.choice((2, 4))
            fields[i] = ("size", str(int(fields[i][1]) + rng.choice((-1, 1))).encode())
        data = b"".join(value for _, value in fields) + pixels
        if kind >= 0.85:
            data = data[:rng.randrange(len(data))]
        cases.append(data)
    return cases


def test_fuzzed_boxes_and_frames_exit_cleanly(tmp_path, ckpt, capsys):
    """Mutated boxes csv files and PPM headers end ``eval`` (and ``track``
    on frames that load) in exit 0 or 1 with a one-line error, never in an
    escaping exception or a numpy warning."""
    seq = generate_synthetic(SyntheticConfig(frames=3), seed=7)
    seq_path = tmp_path / "seq"
    save_sequence(seq_path, seq)
    rows = [[str(i + 1)] + [repr(float(v)) for v in box] + ["0.5"]
            for i, box in enumerate(seq.gt)]
    boxes, metrics = tmp_path / "boxes.csv", tmp_path / "metrics.csv"
    rng = random.Random(20261)

    def check(argv):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1), argv
        assert (rc == 1) == err.startswith("error:") and "Traceback" not in err
        return rc

    eval_argv = ["eval", "--boxes", str(boxes), "--sequence", str(seq_path),
                 "--out", str(metrics)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in box_csv_cases(rng, 150, rows):
            boxes.write_text(text)
            check(eval_argv)
        boxes.write_text("".join(",".join(r) + "\n" for r in rows))
        frame = seq_path / "00000002.ppm"
        height, width = seq.frames[1].shape[:2]
        for data in ppm_cases(rng, 150, width, height, seq.frames[1].tobytes()):
            frame.write_bytes(data)
            if check(eval_argv) == 0:
                check(["track", "--checkpoint", str(ckpt), "--sequence",
                       str(seq_path), "--out", str(tmp_path / "track.csv")])


# Entries that once loaded and made track write NaN scores or fail with an
# internal message.
FUZZ_CKPT_KNOWN = [
    ("values", "score.out.b", "nan"),
    ("values", "backbone.stage3.block0.mlp.fc2.w", "nan"),
]
FUZZ_CKPT_CONFIG = {
    # no large online_templates: it has no upper bound, and a large count
    # makes track allocate gigabytes
    "preset": ["nope", "", "Tiny"],
    "attention": ["full", "asym"],
    "online_templates": ["0", "2", "-1", "1.5"],
    "seed": ["-1", "0", "x"],
    "update_interval": ["0", "1", "-3"],
    "score_threshold": ["nan", "-0.1", "1", "2"],
    "search_factor": ["1", "1e308", "nan", "0.5", "2.5"],
    "template_factor": ["1", "1e308", "inf", "1.5"],
    "lr": ["0", "nan"],
    "flip": ["maybe"],
}


def fuzz_checkpoint_cases(rng, n, names):
    """The known cases, then one entry's name, rank, dims or values (NaN or
    +-inf, in one element or all) changed, or one config-text value."""
    cases = list(FUZZ_CKPT_KNOWN)
    while len(cases) < n:
        kind = rng.choice(("name", "rank", "dims", "values", "values", "config"))
        if kind == "config":
            key = rng.choice(sorted(FUZZ_CKPT_CONFIG))
            cases.append((kind, key, rng.choice(FUZZ_CKPT_CONFIG[key])))
        else:
            cases.append((kind, rng.choice(names), None))
    return cases


def fuzzed_checkpoint(rng, entries, case):
    """Checkpoint bytes of (name, array) entries with ``case`` applied,
    under a recomputed CRC."""
    kind, target, value = case
    parts = []
    for name, arr in entries:
        raw, dims = name.encode("utf-8"), list(arr.shape)
        payload = np.array(arr, dtype="<f4")
        if name == target and kind == "name":
            other = rng.choice(entries)[0].encode("utf-8")
            raw = rng.choice([raw + b"x", raw[:-1], b"", b"\xff" + raw[1:],
                              raw.upper(), other])
        elif name == target and kind == "rank":
            dims = rng.choice([dims + [1], [1] + dims, dims[:-1], [],
                               [payload.size], dims + [2], [1] * 17])
        elif name == target and kind == "dims" and dims:
            i = rng.randrange(len(dims))
            dims[i] = rng.choice([dims[i] + 1, dims[i] - 1, 0, 1, 2**31, 2**32 - 1])
        elif name == target and kind == "values":
            bad = float(value or rng.choice(("nan", "inf", "-inf")))
            flat = payload.reshape(-1)
            if value or rng.random() < 0.5:
                flat[rng.randrange(flat.size)] = bad
            else:
                flat[...] = bad
        parts += [len(raw).to_bytes(4, "little"), raw, len(dims).to_bytes(4, "little")]
        parts += [d.to_bytes(4, "little") for d in dims]
        parts.append(payload.tobytes())
    body = b"".join([ck.MAGIC, ck.VERSION.to_bytes(4, "little"),
                     len(entries).to_bytes(4, "little")] + parts)
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def test_fuzzed_checkpoint_entries_exit_cleanly(tmp_path, ckpt, capsys):
    """Checkpoints whose entries or config text are changed under a valid
    CRC end ``track`` and ``inspect`` in exit 0 or 1 with a one-line
    error, never in an escaping exception or a numpy warning, and every
    boxes file track writes passes eval with finite scores."""
    seq = generate_synthetic(SyntheticConfig(frames=3), seed=7)
    seq_path = tmp_path / "seq"
    save_sequence(seq_path, seq)
    arrays, text = load_checkpoint(ckpt)
    config = dict(line.split(" = ") for line in text.splitlines())
    rng = random.Random(20262)
    path, boxes = tmp_path / "fuzz.ckpt", tmp_path / "boxes.csv"

    def check(argv):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1), argv
        assert (rc == 1) == err.startswith("error:") and "Traceback" not in err
        return rc

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in fuzz_checkpoint_cases(rng, 150, sorted(arrays)):
            kind, target, value = case
            settings = dict(config)
            if kind == "config":
                settings[target] = value
            codes = "".join(f"{k} = {v}\n" for k, v in settings.items())
            entries = sorted({**arrays, ck.CONFIG_KEY: np.frombuffer(
                codes.encode("utf-8"), dtype=np.uint8).astype(np.float32)}.items())
            path.write_bytes(fuzzed_checkpoint(rng, entries, case))
            boxes.unlink(missing_ok=True)
            rc = check(["track", "--checkpoint", str(path), "--sequence", str(seq_path),
                        "--out", str(boxes)])
            if rc == 0:
                scores = [float(row.split(",")[5])
                          for row in boxes.read_text().splitlines()]
                assert all(np.isfinite(scores)), (case, scores)
                assert check(["eval", "--boxes", str(boxes), "--sequence", str(seq_path),
                              "--out", str(tmp_path / "metrics.csv")]) == 0, case
            else:
                assert not boxes.exists(), case
            check(["inspect", "--checkpoint", str(path), "--sequence", str(seq_path),
                   "--frame", "2", "--out", str(tmp_path / "maps")])
