import hashlib
import re

import numpy as np
import pytest

from mixtrack import checkpoint as ck
from mixtrack import model as mdl
from mixtrack.data import SyntheticConfig, generate_synthetic
from mixtrack.errors import CheckpointError
from mixtrack.train import AdamW, TrainConfig, train_stage1, train_stage2_spm


def tiny_model(seed=0):
    return mdl.build_model("tiny", seed=seed)


def tiny_batch(seed=1, batch=2):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 1, (batch, 2, 3, 32, 32)).astype(np.float32)
    s = rng.uniform(0, 1, (batch, 3, 64, 64)).astype(np.float32)
    return t, s


class TestAssembly:
    def test_forward_box_shapes(self):
        m = tiny_model()
        t, s = tiny_batch()
        box, feat, tmpl = m.forward_box(t, s)
        assert box.shape == (2, 4)
        assert feat.shape == (2, 64, 4, 4)
        assert tmpl.shape == (2, 8, 64)
        b = box.numpy()
        assert (b[:, 2] >= b[:, 0]).all() and (b[:, 3] >= b[:, 1]).all()

    def test_score_path(self):
        m = tiny_model()
        t, s = tiny_batch(batch=1)
        box, feat, tmpl = m.forward_box(t, s)
        score = m.predict_score(feat[0], tuple(box.numpy()[0]), tmpl[0])
        assert 0.0 < score.item() < 1.0

    def test_same_seed_same_init(self):
        a = tiny_model(seed=7).named_params()
        b = tiny_model(seed=7).named_params()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k

    def test_different_seed_different_init(self):
        a = tiny_model(seed=1).named_params()
        b = tiny_model(seed=2).named_params()
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_every_parameter_moves_the_output(self):
        # A parameter that softmax or the soft argmax cancels, such as a key
        # bias or a bias on a corner map, moves the output only by rounding.
        # In float64 that is at most a few 1e-16 here, while the live tensor
        # that moves it least moves it by about 3e-10.  Each tensor gets a
        # small random change in turn; the box must move, or for score.* the
        # score, which reads a fixed box so that its pooled tokens differ.
        m = tiny_model()
        params = m.named_params()
        for p in params.values():
            p.data = p.data.astype(np.float64)
        t, s = (a.astype(np.float64) for a in tiny_batch(batch=1))

        def outputs():
            box, feat, tmpl = m.forward_box(t, s)
            score = m.predict_score(feat[0], (0.2, 0.3, 0.7, 0.8), tmpl[0])
            return box.numpy(), score.item()

        box0, score0 = outputs()
        rng = np.random.default_rng(2)
        for name, p in params.items():
            saved = p.data
            p.data = saved + 1e-2 * rng.standard_normal(saved.shape)
            box, score = outputs()
            p.data = saved
            if name.startswith("score."):
                moved = abs(score - score0)
            else:
                moved = np.abs(box - box0).max()
            assert moved > 1e-12, name

    def test_tokens_per_template(self):
        assert tiny_model().score.per_template == 4

    def test_build_keeps_the_draw_of_every_drawn_parameter(self):
        # sha256 over each entry's name, shape and bytes in named order,
        # taken before the corner stacks' frozen batch norms (which drew
        # nothing) gave way to conv biases; the biases draw nothing either
        # and start at zero
        conv_bias = re.compile(r"head\.(tl|br)[0-3]\.b")
        digest = hashlib.sha256()
        for name, a in ck.state_dict(tiny_model()).items():
            if conv_bias.fullmatch(name):
                assert not a.any(), name
                continue
            digest.update(name.encode())
            digest.update(repr(a.shape).encode())
            digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "f49354a012c05ace2cfd0d071e6e3bcef29882ea17e228252f361adf3341712e")


class TestTemplateCache:
    """``forward_box`` against a ``forward_template`` cache equals the joint
    pass bit for bit at two and three templates.  At one it stays within
    ``ONE_TEMPLATE_ATOL``: stage 3's template grid then halves to a single
    key row, and the template-only pass projects that one row through
    ``ad.linear``, which BLAS rounds apart from the same row inside the
    joint pass's larger product.  Seeds 0-3 measured boxes up to 1.2e-7 and
    search features and template tokens up to 3.6e-7 apart."""

    ONE_TEMPLATE_ATOL = 1e-6

    @pytest.mark.parametrize("templates", [1, 2, 3])
    def test_cached_forward_box_matches_the_joint_pass(self, templates):
        m = mdl.build_model("tiny", templates=templates, seed=0)
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, (1, templates, 3, 32, 32)).astype(np.float32)
        s = rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        joint = m.forward_box(t, s)
        cached = m.forward_box(t, s, m.backbone.forward_template(t))
        for name, a, b in zip(("boxes", "search features", "template tokens"),
                              joint, cached):
            if templates == 1:
                np.testing.assert_allclose(b.numpy(), a.numpy(), rtol=0,
                                           atol=self.ONE_TEMPLATE_ATOL, err_msg=name)
            else:
                assert np.array_equal(a.numpy(), b.numpy()), name


def assert_packed(model):
    """Every parameter is a view of ``model.arena`` at its named-order
    offset, and the ``score.*`` parameters form the tail."""
    arena = model.arena
    assert arena.dtype == np.float32 and arena.flags.c_contiguous
    start = arena.__array_interface__["data"][0]
    offset = 0
    for name, p in model.named_params().items():
        assert p.data.base is arena and p.data.flags.c_contiguous, name
        assert p.data.__array_interface__["data"][0] == start + 4 * offset, name
        offset += p.data.size
    assert offset == arena.size
    is_score = [name.startswith("score.") for name in model.named_params()]
    assert any(is_score) and is_score == sorted(is_score)


class TestArena:
    def test_parameters_view_the_arena_in_named_order(self):
        assert_packed(tiny_model())

    def test_stage_params_split_the_arena_at_the_score_head(self):
        m = tiny_model()
        body, body_tensors = m.stage_params(False)
        tail, tail_tensors = m.stage_params(True)
        assert list(map(id, body_tensors + tail_tensors)) == list(
            map(id, m.named_params().values()))
        assert list(map(id, tail_tensors)) == list(
            map(id, m.score.named_params().values()))
        start = m.arena.__array_interface__["data"][0]
        assert body.__array_interface__["data"][0] == start
        assert tail.__array_interface__["data"][0] == start + 4 * body.size
        assert body.size == sum(p.data.size for p in body_tensors)
        assert body.size + tail.size == m.arena.size

    def test_layout_holds_through_training_and_loading(self):
        m = tiny_model(seed=3)
        data = [p.data for p in m.named_params().values()]

        def unchanged():
            assert_packed(m)
            assert all(p.data is d for p, d in zip(m.named_params().values(), data))

        for score in (False, True):
            AdamW(*m.stage_params(score), weight_decay=1e-4, clip_norm=0.1)
            unchanged()
        seqs = [generate_synthetic(SyntheticConfig(frames=6), seed=s) for s in (1, 2)]
        cfg = TrainConfig(stage1_iters=2, stage2_iters=2, batch_size=1, seed=3)
        before = m.arena.copy()
        train_stage1(m, seqs, cfg)
        unchanged()
        train_stage2_spm(m, seqs, cfg)
        unchanged()
        assert not np.array_equal(m.arena, before)
        other = ck.state_dict(tiny_model(seed=4))
        ck.load_state(m, other)
        unchanged()
        for name, p in m.named_params().items():
            assert np.array_equal(p.data, other[name]), name


def checkpoint_arrays(model, tmp_path):
    """The arrays ``load_checkpoint`` returns for a saved ``model``."""
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, ck.state_dict(model), None)
    return ck.load_checkpoint(path)[0]


class TestLoadModel:
    """``load_model`` builds without the random draw and copies each array
    once, into a model equal bit for bit to ``build_model`` + ``load_state``."""

    @pytest.mark.parametrize("mode", ["full", "asymmetric"])
    @pytest.mark.parametrize("templates", [1, 2, 3])
    def test_matches_build_and_load_state(self, tmp_path, mode, templates):
        saved = mdl.build_model("tiny", mode=mode, templates=templates, seed=3)
        arrays = checkpoint_arrays(saved, tmp_path)
        built = mdl.build_model("tiny", mode=mode, templates=templates, seed=4)
        ck.load_state(built, arrays)
        loaded = mdl.load_model(arrays, "tiny", mode=mode, templates=templates)
        assert_packed(loaded)
        assert loaded.arena.tobytes() == built.arena.tobytes()
        for score in (False, True):
            (a, a_tensors), (b, b_tensors) = (
                m.stage_params(score) for m in (loaded, built))
            assert a.tobytes() == b.tobytes()
            assert [t.shape for t in a_tensors] == [t.shape for t in b_tensors]
        rng = np.random.default_rng(5)
        t = rng.uniform(0, 1, (1, templates, 3, 32, 32)).astype(np.float32)
        s = rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        outs = [m.forward_box(t, s) for m in (loaded, built)]
        for a, b in zip(*outs):
            assert a.numpy().tobytes() == b.numpy().tobytes()
        scores = [m.predict_score(feat[0], tuple(box.numpy()[0]), tmpl[0]).numpy()
                  for m, (box, feat, tmpl) in zip((loaded, built), outs)]
        assert scores[0].tobytes() == scores[1].tobytes()

    def test_checkpoint_arrays_are_read_only_and_not_shared(self, tmp_path):
        arrays = checkpoint_arrays(tiny_model(seed=2), tmp_path)
        name = next(iter(arrays))
        assert all(not a.flags.writeable for a in arrays.values())
        with pytest.raises(ValueError):
            arrays[name][...] = 0.0
        for m in (mdl.load_model(arrays, "tiny", mode="asymmetric", templates=2),
                  ck.load_state(tiny_model(), arrays)):
            assert not any(np.shares_memory(m.arena, a) for a in arrays.values())

    @pytest.mark.parametrize("damage", ["missing", "unexpected", "shape", "nan"])
    def test_rejects_what_load_state_rejects(self, damage):
        arrays = ck.state_dict(tiny_model(seed=1))
        name = "backbone.stage2.block0.attn.wq.w"
        if damage == "missing":
            del arrays[name]
        elif damage == "unexpected":
            arrays["bogus.w"] = np.zeros(3, np.float32)
        elif damage == "shape":
            arrays[name] = np.zeros((1, 1), np.float32)
        else:
            arrays[name] = np.full_like(arrays[name], np.nan)
        messages = []
        for load in (lambda: ck.load_state(tiny_model(), arrays),
                     lambda: mdl.load_model(arrays, "tiny", mode="asymmetric",
                                            templates=2)):
            with pytest.raises(CheckpointError) as info:
                load()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
