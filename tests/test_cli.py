import shutil
import zlib

import numpy as np
import pytest

from mixtrack import checkpoint as ck
from mixtrack import cli
from mixtrack.checkpoint import load_checkpoint
from mixtrack.data import Sequence, SyntheticConfig, generate_synthetic, save_sequence

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

    def test_cache_flag_runs(self, work, ckpt, seq_dir):
        out = work / "cached.csv"
        rc = cli.main(["track", "--checkpoint", str(ckpt),
                       "--sequence", str(seq_dir), "--out", str(out),
                       "--cache"])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 6

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
    blob = bytearray(ck.serialize({**arrays, ck.CONFIG_KEY: codes})[:-4])
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
