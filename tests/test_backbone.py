import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack import backbone as bb
from mixtrack import nn
from mixtrack.attention import ASYMMETRIC, FULL_MIXED
from mixtrack.autodiff import Tape
from mixtrack.errors import ConfigError, ShapeError


def tiny_net(seed=0, mode=ASYMMETRIC, templates=2):
    cfg = bb.preset("tiny", templates=templates, mode=mode)
    return cfg, bb.Backbone(cfg, nn.Draw(np.random.default_rng(seed)))


def tiny_inputs(cfg, seed=1, batch=1):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(
        (batch, cfg.templates, 3, cfg.template_size, cfg.template_size)
    ).astype(np.float32)
    s = rng.standard_normal(
        (batch, 3, cfg.search_size, cfg.search_size)
    ).astype(np.float32)
    return t, s


class TestConfig:
    def test_stage_dim_must_divide_heads(self):
        with pytest.raises(ConfigError):
            bb.StageConfig(65, 1, 2)

    def test_sizes_must_divide_16(self):
        cfg = bb.preset("tiny", templates=2, mode=ASYMMETRIC)
        with pytest.raises(ConfigError):
            bb.BackboneConfig(cfg.stages, 33, 64, 2, ASYMMETRIC)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            bb.preset("huge", templates=2, mode=ASYMMETRIC)

    def test_unknown_mode(self):
        cfg = bb.preset("tiny", templates=2, mode=ASYMMETRIC)
        with pytest.raises(ConfigError):
            bb.BackboneConfig(cfg.stages, 32, 64, 2, "sideways")

    def test_two_stages_rejected(self):
        cfg = bb.preset("tiny", templates=2, mode=ASYMMETRIC)
        with pytest.raises(ConfigError):
            bb.BackboneConfig(cfg.stages[:2], 32, 64, 2, ASYMMETRIC)


class TestPresets:
    def test_base_token_counts_per_stage(self):
        cfg = bb.preset("mixformer", templates=2, mode=ASYMMETRIC)
        totals = [layout.total for layout in cfg.stage_layouts()]
        assert totals == [8448, 2112, 528]

    def test_base_single_template_final_length(self):
        cfg = bb.preset("mixformer", templates=1, mode=ASYMMETRIC)
        assert cfg.stage_layouts()[-1].total == 464

    def test_base_final_map_shape(self):
        cfg = bb.preset("mixformer", templates=2, mode=ASYMMETRIC)
        last = cfg.stage_layouts()[-1]
        assert (last.s, last.dim) == (20, 384)

    def test_base_dims_blocks_heads(self):
        cfg = bb.preset("mixformer", templates=2, mode=ASYMMETRIC)
        assert tuple(s.dim for s in cfg.stages) == (64, 192, 384)
        assert tuple(s.blocks for s in cfg.stages) == (1, 4, 16)
        assert tuple(s.heads for s in cfg.stages) == (1, 3, 6)

    def test_large_dims_blocks_heads(self):
        cfg = bb.preset("mixformer_l", templates=2, mode=ASYMMETRIC)
        assert tuple(s.dim for s in cfg.stages) == (192, 768, 1024)
        assert tuple(s.blocks for s in cfg.stages) == (2, 2, 12)
        assert tuple(s.heads for s in cfg.stages) == (3, 12, 16)
        assert cfg.template_size == 128
        assert cfg.search_size == 320

    def test_tiny_token_counts(self):
        cfg = bb.preset("tiny", templates=2, mode=ASYMMETRIC)
        totals = [layout.total for layout in cfg.stage_layouts()]
        assert totals == [384, 96, 24]

    def test_tiny_final_map(self):
        cfg = bb.preset("tiny", templates=2, mode=ASYMMETRIC)
        last = cfg.stage_layouts()[-1]
        assert (last.s, last.dim) == (4, 64)

    def test_embed_extent_halving(self):
        # 128/320 inputs shrink 4x then 2x twice
        cfg = bb.preset("mixformer", templates=2, mode=ASYMMETRIC)
        grids = [(l.t, l.s) for l in cfg.stage_layouts()]
        assert grids == [(32, 80), (16, 40), (8, 20)]


class TestPatchEmbed:
    def test_stage1_extent(self):
        pe = bb.PatchEmbed(3, 8, 7, 4, nn.Draw(np.random.default_rng(0)))
        x = np.zeros((1, 3, 128, 128), dtype=np.float32)
        tok = pe(x)
        assert tok.shape == (1, 32 * 32, 8)

    def test_tokens_are_normalized_per_position(self):
        pe = bb.PatchEmbed(3, 6, 3, 2, nn.Draw(np.random.default_rng(0)))
        x = np.random.default_rng(1).standard_normal((1, 3, 8, 8)).astype(np.float32)
        tok = pe(x)
        m = tok.numpy().mean(axis=-1)
        assert np.abs(m).max() < 1e-5


class TestForward:
    def test_output_shapes(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg, batch=2)
        feat, tmpl = net.forward(t, s)
        assert feat.shape == (2, 64, 4, 4)
        assert tmpl.shape == (2, 8, 64)

    def test_wrong_template_count(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg)
        with pytest.raises(ShapeError):
            net.forward(t[:, :1], s)

    def test_wrong_search_size(self):
        cfg, net = tiny_net()
        t, _ = tiny_inputs(cfg)
        bad = np.zeros((1, 3, 32, 32), dtype=np.float32)
        with pytest.raises(ShapeError):
            net.forward(t, bad)

    def test_batch_mismatch(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg, batch=2)
        with pytest.raises(ShapeError):
            net.forward(t[:1], s)

    def test_forward_is_deterministic(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg)
        a = net.forward(t, s)[0].numpy()
        b = net.forward(t, s)[0].numpy()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [ASYMMETRIC, FULL_MIXED])
    def test_template_order_independence(self, mode):
        # swapping the two templates permutes template outputs and leaves
        # the search features unchanged (key order cancels in the softmax sum)
        cfg, net = tiny_net(mode=mode)
        t, s = tiny_inputs(cfg)
        feat_a, tmpl_a = net.forward(t, s)
        feat_b, tmpl_b = net.forward(t[:, ::-1].copy(), s)
        assert np.allclose(feat_a.numpy(), feat_b.numpy(), atol=2e-5)
        per = cfg.stage_layouts()[-1].tokens_per_template
        swapped = np.concatenate(
            [tmpl_b.numpy()[:, per:], tmpl_b.numpy()[:, :per]], axis=1
        )
        assert np.allclose(tmpl_a.numpy(), swapped, atol=2e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_reach_first_stage(self, seed):
        cfg, net = tiny_net(seed=seed)
        t, s = tiny_inputs(cfg, seed=seed + 100)
        with Tape() as tape:
            feat, tmpl = net.forward(t, s)
            loss = ad.add(
                ad.sum_(ad.mul(feat, feat)), ad.sum_(ad.mul(tmpl, tmpl))
            )
            tape.backward(loss)
        g = net.stage1.embed.conv.w.grad
        assert g is not None
        assert np.isfinite(g).all()
        assert np.abs(g).max() > 0


class TestTemplateCache:
    def test_cached_matches_full_forward(self):
        # bit for bit at B=1 and B=4
        cfg, net = tiny_net()
        for batch in (1, 4):
            t, s = tiny_inputs(cfg, batch=batch)
            cache = net.forward_template(t)
            full = net.forward(t, s)
            cached = net.forward_search(s, cache)
            assert len(full) == len(cached) == 2
            for a, b in zip(full, cached):
                assert np.array_equal(a.numpy(), b.numpy())

    def test_final_block_tokens_feed_the_last_block(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg)
        x, layout = net.final_block_tokens(t, s)
        assert layout == cfg.stage_layouts()[-1]
        y, _ = net.stage3.block[-1](x, layout)
        y = net.norm(y).numpy()
        feat, tmpl = net.forward(t, s)
        lt = layout.template_total
        assert np.array_equal(y[:, :lt], tmpl.numpy())
        search = y[:, lt:].reshape(1, layout.s, layout.s, layout.dim)
        assert np.array_equal(search.transpose(0, 3, 1, 2), feat.numpy())

    def test_template_recompute_is_bit_identical(self):
        cfg, net = tiny_net()
        t, _ = tiny_inputs(cfg)
        a = net.forward_template(t)
        b = net.forward_template(t)
        assert np.array_equal(a.template_tokens.numpy(), b.template_tokens.numpy())
        for kv_a, kv_b in zip(a.kv, b.kv):
            for (ka, va), (kb, vb) in zip(kv_a, kv_b):
                assert np.array_equal(ka.numpy(), kb.numpy())
                assert np.array_equal(va.numpy(), vb.numpy())

    def test_search_replay_is_bit_identical(self):
        cfg, net = tiny_net()
        t, s = tiny_inputs(cfg)
        cache = net.forward_template(t)
        a = net.forward_search(s, cache)[0].numpy()
        b = net.forward_search(s, cache)[0].numpy()
        assert np.array_equal(a, b)

    def test_search_batch_must_match_the_cache(self):
        cfg, net = tiny_net()
        t, _ = tiny_inputs(cfg, batch=1)
        _, s = tiny_inputs(cfg, batch=4)
        cache = net.forward_template(t)
        with pytest.raises(ShapeError, match="batch mismatch: 1 templates vs 4 search"):
            net.forward_search(s, cache)

    def test_search_size_is_checked_against_the_cache_pass(self):
        cfg, net = tiny_net()
        t, _ = tiny_inputs(cfg)
        cache = net.forward_template(t)
        for bad in ((1, 3, 32, 32), (1, 1, 64, 64), (3, 64, 48)):
            with pytest.raises(ShapeError, match=r"search must be \[B, 3, 64, 64\]"):
                net.forward_search(np.zeros(bad, dtype=np.float32), cache)

    def test_template_shape_is_checked_on_the_cache_pass(self):
        _, net = tiny_net()
        for bad in ((1, 2, 3, 48, 48), (1, 3, 3, 32, 32), (2, 3, 32, 32)):
            with pytest.raises(ShapeError, match="template"):
                net.forward_template(np.zeros(bad, dtype=np.float32))

    def test_cache_requires_asymmetric_mode(self):
        cfg, net = tiny_net(mode=FULL_MIXED)
        t, _ = tiny_inputs(cfg)
        with pytest.raises(ConfigError):
            net.forward_template(t)


class TestCost:
    def test_param_formula_matches_instance(self):
        for name in ("tiny", "mixformer"):
            cfg = bb.preset(name, templates=2, mode=ASYMMETRIC)
            net = bb.Backbone(cfg, nn.Draw(np.random.default_rng(0)))
            count = sum(p.size for p in net.named_params().values())
            assert bb.count_params_flops(cfg)["params"] == count, name

    def test_base_flops_near_reference(self):
        cost = bb.count_params_flops(
            bb.preset("mixformer", templates=2, mode=ASYMMETRIC))
        assert abs(cost["flops"] - 23.04e9) / 23.04e9 < 0.2

    def test_breakdown_sums_to_total(self):
        cost = bb.count_params_flops(
            bb.preset("mixformer", templates=2, mode=ASYMMETRIC))
        assert sum(s["flops"] for s in cost["stages"]) == cost["flops"]
        norm_params = 2 * 384
        assert sum(s["params"] for s in cost["stages"]) + norm_params == cost["params"]

    def test_asymmetric_is_cheaper_than_full(self):
        asym = bb.count_params_flops(
            bb.preset("mixformer", templates=2, mode=ASYMMETRIC))
        full = bb.count_params_flops(
            bb.preset("mixformer", templates=2, mode=FULL_MIXED))
        assert asym["flops"] < full["flops"]
        assert asym["params"] == full["params"]

    def test_param_names_are_hierarchical(self):
        _, net = tiny_net()
        names = set(net.named_params())
        assert "stage1.embed.conv.w" in names
        assert "stage3.block1.attn.wq.w" in names
        assert "norm.gain" in names
