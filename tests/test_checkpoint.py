import re
import zlib

import numpy as np
import pytest

from mixtrack import checkpoint as ck
from mixtrack.errors import CheckpointError, ConfigError
from mixtrack.model import build_model
from mixtrack.train import AdamW


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "scalar": np.float32(rng.normal()).reshape(()),
        "vec": rng.normal(size=7).astype(np.float32),
        "mat": rng.normal(size=(3, 5)).astype(np.float32),
        "deep.name.w": rng.normal(size=(2, 2, 2, 2)).astype(np.float32),
    }


class TestFormat:
    def test_round_trip_is_bit_identical(self, tmp_path):
        arrays = sample_arrays()
        path = tmp_path / "a.ckpt"
        ck.save_checkpoint(path, arrays, None)
        loaded, text = ck.load_checkpoint(path)
        assert text is None
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].dtype == np.float32
            assert np.array_equal(loaded[k], arrays[k])

    def test_serialization_is_deterministic(self):
        a = ck.serialize(sample_arrays(), None)
        b = ck.serialize(sample_arrays(), None)
        assert a == b

    def test_entry_order_ignores_dict_order(self):
        arrays = sample_arrays()
        reordered = dict(reversed(list(arrays.items())))
        assert ck.serialize(arrays, None) == ck.serialize(reordered, None)

    def test_config_text_round_trips(self, tmp_path):
        path = tmp_path / "c.ckpt"
        text = "preset = tiny\nseed = 3\n"
        ck.save_checkpoint(path, sample_arrays(), config_text=text)
        _, loaded = ck.load_checkpoint(path)
        assert loaded == text

    def test_reserved_name_collision(self):
        with pytest.raises(ConfigError):
            ck.serialize({ck.CONFIG_KEY: np.zeros(3, np.float32)},
                         config_text="x = 1")

    def test_header_layout(self):
        blob = ck.serialize({"w": np.zeros((2, 3), np.float32)}, None)
        assert blob[:4] == b"MIXF"
        assert int.from_bytes(blob[4:8], "little") == ck.VERSION
        assert int.from_bytes(blob[8:12], "little") == 1
        # name length, then the name itself
        assert int.from_bytes(blob[12:16], "little") == 1
        assert blob[16:17] == b"w"
        assert int.from_bytes(blob[17:21], "little") == 2
        assert int.from_bytes(blob[21:25], "little") == 2
        assert int.from_bytes(blob[25:29], "little") == 3

    def test_payload_is_little_endian_float32(self):
        arr = np.array([1.0, -2.5], dtype=">f8")
        blob = ck.serialize({"v": arr}, None)
        loaded, _ = ck.deserialize(blob)
        assert loaded["v"].dtype == np.float32
        np.testing.assert_allclose(loaded["v"], [1.0, -2.5])


def overflowing_shape_checkpoint():
    """CRC-valid bytes of one payload-free entry of shape (2**31, 2**31, 4)."""
    dims = (2**31, 2**31, 4)
    body = b"".join([ck.MAGIC, ck.VERSION.to_bytes(4, "little"), (1).to_bytes(4, "little"),
                     (1).to_bytes(4, "little"), b"w", len(dims).to_bytes(4, "little")]
                    + [d.to_bytes(4, "little") for d in dims])
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


class TestCorruption:
    def test_bad_magic(self):
        blob = b"NOPE" + ck.serialize(sample_arrays(), None)[4:]
        with pytest.raises(CheckpointError, match="magic"):
            ck.deserialize(blob)

    def test_flipped_byte_fails_crc(self):
        blob = bytearray(ck.serialize(sample_arrays(), None))
        blob[30] ^= 0xFF
        with pytest.raises(CheckpointError, match="CRC"):
            ck.deserialize(bytes(blob))

    def test_truncation(self, tmp_path):
        blob = ck.serialize(sample_arrays(), None)
        path = tmp_path / "t.ckpt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            ck.load_checkpoint(path)

    def test_tiny_file(self):
        with pytest.raises(CheckpointError, match="truncated"):
            ck.deserialize(b"MIXF\x01")

    def test_unsupported_version(self):
        body = b"MIXF" + (99).to_bytes(4, "little") + (0).to_bytes(4, "little")
        import zlib

        blob = body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(CheckpointError, match="version"):
            ck.deserialize(blob)

    @pytest.mark.parametrize("name", ["a", ck.CONFIG_KEY])
    def test_repeated_name_rejected(self, name):
        # a CRC-valid file whose second copy would otherwise win silently
        body = b"".join([
            ck.MAGIC, (ck.VERSION).to_bytes(4, "little"), (2).to_bytes(4, "little"),
            ck._encode_entry(name, np.ones(2)),
            ck._encode_entry(name, np.full(2, 2.0)),
        ])
        blob = body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(CheckpointError, match=re.escape(f"{name!r} appears twice")):
            ck.deserialize(blob)

    def test_shape_whose_size_overflows_int64_is_truncation(self):
        # 2**31 * 2**31 * 4 wraps to 0 in int64, which once read as an empty
        # entry and then failed to reshape with a bare ValueError
        blob = overflowing_shape_checkpoint()
        with pytest.raises(CheckpointError, match="truncated"):
            ck.deserialize(blob)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            ck.load_checkpoint(tmp_path / "absent.ckpt")

    def test_no_tmp_left_behind(self, tmp_path):
        ck.save_checkpoint(tmp_path / "x.ckpt", sample_arrays(), None)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt"]


class TestModelState:
    def test_model_round_trip(self, tmp_path):
        model = build_model("tiny", seed=5)
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(path, ck.state_dict(model), None)
        arrays, _ = ck.load_checkpoint(path)
        other = build_model("tiny", seed=9)
        ck.load_state(other, arrays)
        for k, v in ck.state_dict(model).items():
            assert np.array_equal(v, ck.state_dict(other)[k])

    def test_missing_name_rejected(self):
        model = build_model("tiny", seed=0)
        arrays = ck.state_dict(model)
        arrays.pop(sorted(arrays)[0])
        with pytest.raises(CheckpointError, match="state mismatch"):
            ck.load_state(model, arrays)

    def test_unexpected_name_rejected(self):
        model = build_model("tiny", seed=0)
        arrays = ck.state_dict(model)
        arrays["bogus.w"] = np.zeros(3, np.float32)
        with pytest.raises(CheckpointError, match="state mismatch"):
            ck.load_state(model, arrays)

    def test_shape_mismatch_names_the_entry(self):
        model = build_model("tiny", seed=0)
        arrays = ck.state_dict(model)
        name = sorted(arrays)[0]
        arrays[name] = np.zeros((1, 1), np.float32)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            ck.load_state(model, arrays)

    @pytest.mark.parametrize("name, value", [
        ("score.out.b", np.nan),
        ("backbone.stage3.block0.mlp.fc2.w", np.nan),
        ("backbone.stage1.embed.conv.w", np.inf),
        ("head.br0.b", -np.inf),
    ])
    def test_non_finite_entry_rejected_before_any_copy(self, name, value):
        model = build_model("tiny", seed=0)
        before = {k: v.copy() for k, v in ck.state_dict(model).items()}
        arrays = {k: v.copy() for k, v in sorted(
            ck.state_dict(build_model("tiny", seed=1)).items())}
        arrays[name].flat[-1] = value
        with pytest.raises(CheckpointError, match=re.escape(f"{name!r} holds non-finite")):
            ck.load_state(model, arrays)
        for k, v in ck.state_dict(model).items():
            assert np.array_equal(v, before[k]), k

    def test_shape_mismatch_in_the_last_entry_changes_nothing(self):
        model = build_model("tiny", seed=0)
        before = {k: v.copy() for k, v in ck.state_dict(model).items()}
        arrays = {k: v.copy() for k, v in sorted(
            ck.state_dict(build_model("tiny", seed=1)).items())}
        last = next(reversed(arrays))
        assert last == "score.token"
        arrays[last] = np.zeros((1, 1), np.float32)
        with pytest.raises(CheckpointError, match="shape mismatch for 'score.token'"):
            ck.load_state(model, arrays)
        for k, v in ck.state_dict(model).items():
            assert np.array_equal(v, before[k]), k

    def test_load_keeps_an_optimizer_stepping_the_loaded_values(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(path, ck.state_dict(build_model("tiny", seed=5)), None)
        arrays, _ = ck.load_checkpoint(path)
        model = build_model("tiny", seed=9)
        params = model.named_params()
        opt = AdamW(model.arena, params.values(), weight_decay=1e-2, clip_norm=0.1)
        ck.load_state(model, arrays)
        assert all(p.data.base is model.arena for p in params.values())
        opt.step(1e-2)  # no gradients: a pure weight-decay step from the loaded values
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, arrays[k] - 1e-2 * (1e-2 * arrays[k]))
