"""Three-stage backbone over mixed-attention blocks.

Each stage embeds every region map with an overlapped strided convolution
(template maps and the search map separately, so grids stay rectangular),
concatenates the token streams, and runs its attention blocks.  Stage
boundaries convert tokens back to 2-D maps for the next embedding.  The final
stage can carry one extra regression token, and a layer norm is applied to
the full output sequence before heads consume it.

One stage loop, ``Backbone._run``, does this for every pass, over the regions
it is given.  ``forward`` runs templates and search as one sequence per stage,
and ``final_block_tokens`` runs the same up to the last block.  In asymmetric
mode the template half never reads search tokens, so ``forward_template``
runs the template trunk alone and caches each block's template keys and
values, and ``forward_search`` runs the search rows alone against the cache,
with the same bits as ``forward``.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .attention import (
    ASYMMETRIC, MAMBlock, TokenLayout, _cat, _part, _tokens_to_map, check_mode,
)
from .autodiff import Tensor, _conv_out_extent
from .errors import ConfigError, ShapeError

PRESET_NAMES = ("mixformer", "mixformer_l", "tiny")


@dataclass(frozen=True)
class StageConfig:
    embed_kernel: int
    embed_stride: int
    dim: int
    blocks: int
    heads: int
    mlp_ratio: int

    def __post_init__(self):
        for name in ("embed_kernel", "embed_stride", "dim", "blocks", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"StageConfig.{name} must be >= 1")
        if self.mlp_ratio < 1:
            raise ConfigError("StageConfig.mlp_ratio must be >= 1")
        if self.dim % self.heads != 0:
            raise ConfigError(
                f"stage dim {self.dim} not divisible by heads {self.heads}"
            )


@dataclass(frozen=True)
class BackboneConfig:
    stages: tuple
    template_size: tuple
    search_size: tuple
    templates: int
    mode: str

    def __post_init__(self):
        if len(self.stages) != 3:
            raise ConfigError(f"expected 3 stages, got {len(self.stages)}")
        want = ((7, 4), (3, 2), (3, 2))
        for i, (stage, (k, s)) in enumerate(zip(self.stages, want), start=1):
            if (stage.embed_kernel, stage.embed_stride) != (k, s):
                raise ConfigError(
                    f"stage {i} embedding must be kernel {k} / stride {s}, got "
                    f"{stage.embed_kernel}/{stage.embed_stride}"
                )
        for name in ("template_size", "search_size"):
            h, w = getattr(self, name)
            if h % 16 or w % 16 or h < 16 or w < 16:
                raise ConfigError(f"{name} {h}x{w} must be divisible by 16")
        if self.templates < 1:
            raise ConfigError("template count must be >= 1")
        check_mode(self.mode)

    def stage_layouts(self):
        """Token layout after each stage's embedding."""
        th, tw = self.template_size
        sh, sw = self.search_size
        out = []
        for stage in self.stages:
            pad = stage.embed_kernel // 2
            th = _conv_out_extent(th, stage.embed_kernel, stage.embed_stride, pad)
            tw = _conv_out_extent(tw, stage.embed_kernel, stage.embed_stride, pad)
            sh = _conv_out_extent(sh, stage.embed_kernel, stage.embed_stride, pad)
            sw = _conv_out_extent(sw, stage.embed_kernel, stage.embed_stride, pad)
            out.append(
                TokenLayout(self.templates, th, tw, sh, sw, stage.dim)
            )
        return out

    @property
    def out_dim(self):
        return self.stages[2].dim


def preset(name, templates=2, mode=ASYMMETRIC):
    """Named architecture: mixformer, mixformer_l, or tiny."""
    table = {
        "mixformer": ((64, 192, 384), (1, 4, 16), (1, 3, 6), (128, 128), (320, 320)),
        "mixformer_l": ((192, 768, 1024), (2, 2, 12), (3, 12, 16), (128, 128), (320, 320)),
        "tiny": ((16, 32, 64), (1, 1, 2), (1, 2, 4), (32, 32), (64, 64)),
    }
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    dims, blocks, heads, t_size, s_size = table[name]
    kernels = ((7, 4), (3, 2), (3, 2))
    stages = tuple(
        StageConfig(k, s, d, n, h, 4)
        for (k, s), d, n, h in zip(kernels, dims, blocks, heads)
    )
    return BackboneConfig(stages, t_size, s_size, templates, mode)


def count_params_flops(config):
    """Parameter count and multiply-accumulate estimate for one forward.

    Parameters are exact.  The flops figure counts multiply-accumulates of
    convolutions, attention matmuls and linear layers (norms, softmax and
    activations are omitted); one fused multiply-add counts as one flop.
    Returns totals plus a per-stage breakdown.
    """
    layouts = config.stage_layouts()
    c_in = 3
    stages_out = []
    total_params = 0
    total_flops = 0
    for idx, (stage, layout) in enumerate(zip(config.stages, layouts), start=1):
        d = stage.dim
        k2 = stage.embed_kernel * stage.embed_kernel
        half = layout.halved()
        n_q = layout.total
        n_kt, n_ks = half.template_total, half.search_total
        n_k = n_kt + n_ks

        params = d * c_in * k2 + d          # embed conv
        params += 2 * d                     # embed norm
        per_block = 4 * d                   # the two block norms
        per_block += 3 * (d * 9 + d)        # depth-wise q/k/v (kernel 3)
        per_block += 4 * (d * d + d)        # wq, wk, wv, wo
        hidden = stage.mlp_ratio * d
        per_block += d * hidden + hidden + hidden * d + d
        params += stage.blocks * per_block

        maps_positions = (
            config.templates * layout.tokens_per_template + layout.search_total
        )
        flops = maps_positions * d * c_in * k2      # embed conv
        per_block_f = n_q * d * 9                   # stride-1 depth-wise q
        per_block_f += 2 * n_k * d * 9              # stride-2 depth-wise k, v
        per_block_f += 2 * n_q * d * d              # wq, wo
        per_block_f += 2 * n_k * d * d              # wk, wv
        if config.mode == ASYMMETRIC:
            attended = layout.template_total * n_kt + layout.search_total * n_k
        else:
            attended = n_q * n_k
        per_block_f += 2 * attended * d             # q.kT and weights.v
        per_block_f += 2 * n_q * d * hidden         # the two mlp linears
        flops += stage.blocks * per_block_f

        stages_out.append(
            {"name": f"stage{idx}", "params": params, "flops": flops}
        )
        total_params += params
        total_flops += flops
        c_in = d

    total_params += 2 * config.out_dim              # final sequence norm
    return {"params": total_params, "flops": total_flops, "stages": stages_out}


class PatchEmbed(nn.Module):
    """Overlapped convolutional embedding followed by a token layer norm."""

    def __init__(self, c_in, stage, rng):
        pad = stage.embed_kernel // 2
        self.conv = nn.Conv2d(
            c_in, stage.dim, stage.embed_kernel, stage.embed_stride, pad, rng
        )
        self.norm = nn.LayerNorm(stage.dim)

    def __call__(self, x):
        """[B, C, H, W] -> [B, H'*W', D]."""
        y = self.conv(x)
        b, d, h, w = y.shape
        tok = ad.reshape(ad.transpose(y, (0, 2, 3, 1)), (b, h * w, d))
        return self.norm(tok)


class Stage(nn.Module):
    def __init__(self, c_in, cfg, layout, rng, mode):
        self.layout = layout
        self.embed = PatchEmbed(c_in, cfg, rng)
        self.block = [
            MAMBlock(cfg.dim, cfg.heads, cfg.mlp_ratio, rng, mode=mode)
            for _ in range(cfg.blocks)
        ]


@dataclass(frozen=True)
class TemplateCache:
    """Frozen template-side state for asymmetric tracking.

    ``kv`` holds, per stage, one (k, v) pair per block (head-split tensors of
    the projected template tokens).  ``template_tokens`` is the final normed
    template sequence.
    """

    kv: list
    template_tokens: Tensor


class Backbone(nn.Module):
    """The full three-stage trunk."""

    def __init__(self, config, rng):
        self.config = config
        s1, s2, s3 = config.stages
        l1, l2, l3 = config.stage_layouts()
        self.stage1 = Stage(3, s1, l1, rng, config.mode)
        self.stage2 = Stage(s1.dim, s2, l2, rng, config.mode)
        self.stage3 = Stage(s2.dim, s3, l3, rng, config.mode)
        self.norm = nn.LayerNorm(s3.dim)

    def _stages(self):
        return (self.stage1, self.stage2, self.stage3)

    def _check_inputs(self, templates, search):
        cfg = self.config
        t, s = ad.as_tensor(templates), ad.as_tensor(search)
        if t.ndim != 5 or t.shape[1] != cfg.templates or t.shape[2] != 3:
            raise ShapeError(
                f"templates must be [B, {cfg.templates}, 3, H, W], got {t.shape}"
            )
        if t.shape[3:] != tuple(cfg.template_size):
            raise ShapeError(
                f"template size {t.shape[3:]} != configured {cfg.template_size}"
            )
        if s.ndim != 4 or s.shape[1] != 3 or s.shape[2:] != tuple(cfg.search_size):
            raise ShapeError(
                f"search must be [B, 3, {cfg.search_size[0]}, "
                f"{cfg.search_size[1]}], got {s.shape}"
            )
        if t.shape[0] != s.shape[0]:
            raise ShapeError(
                f"batch mismatch: {t.shape[0]} templates vs {s.shape[0]} search"
            )
        return t, s

    def _run(self, templates=None, search=None, cache=None, reg_token=None,
             last_block=True):
        """The one stage loop, over the regions given.

        ``templates`` is [B, T, 3, H, W], or None when ``cache`` holds the
        template side; ``search`` is [B, 3, H, W], or None for a
        template-only pass.  Each stage embeds the maps present,
        concatenates their tokens (template rows, search rows, then the
        regression token in stage 3) and runs its blocks; between stages the
        rows become maps again.  ``last_block=False`` stops before the last
        stage-3 block.

        Returns the last token sequence, before the final norm, and per
        stage the template (k, v) of each block.
        """
        n_t = self.config.templates
        b = (templates if search is None else search).shape[0]
        t_maps, s_map = templates, search
        if templates is not None:
            t_maps = ad.reshape(templates, (b * n_t,) + templates.shape[2:])
        kv_all = []
        for i, stage in enumerate(self._stages()):
            layout = stage.layout
            lt = layout.template_total if t_maps is not None else 0
            ls = layout.search_total if s_map is not None else 0
            parts = []
            if lt:
                parts.append(ad.reshape(stage.embed(t_maps), (b, lt, layout.dim)))
            if ls:
                parts.append(stage.embed(s_map))
            extra = 0
            if i == 2 and reg_token is not None:
                reg = ad.reshape(reg_token, (1, 1, layout.dim))
                parts.append(ad.add(reg, Tensor(np.zeros((b, 1, layout.dim), dtype=np.float32))))
                extra = 1
            x = _cat(parts, 1)
            blocks = stage.block if last_block or i < 2 else stage.block[:-1]
            kvs = cache.kv[i] if cache is not None else [None] * len(blocks)
            kv_all.append([])
            for blk, kv in zip(blocks, kvs):
                x, kv = blk(x, layout, extra, kv=kv, search=bool(ls))
                kv_all[-1].append(kv)
            if i < 2 and lt:
                t_maps = _tokens_to_map(
                    _part(x, 0, lt, 1), b, n_t, layout.t_h, layout.t_w, layout.dim
                )
            if i < 2 and ls:
                s_map = _tokens_to_map(
                    _part(x, lt, lt + ls, 1), b, 1, layout.s_h, layout.s_w, layout.dim
                )
        return x, kv_all

    def _search_outputs(self, x, start, reg_token):
        """(search_feat [B, D, h, w], reg_out [B, D] or None) from the normed
        final sequence x whose search rows begin at row ``start``."""
        layout = self.stage3.layout
        b = x.shape[0]
        stop = start + layout.search_total
        s_out = _part(x, start, stop, 1)
        search_feat = _tokens_to_map(s_out, b, 1, layout.s_h, layout.s_w, layout.dim)
        reg_out = None
        if reg_token is not None:
            reg_out = ad.reshape(x[:, stop:], (b, layout.dim))
        return search_feat, reg_out

    def forward(self, templates, search, reg_token=None):
        """templates [B, T, 3, H_t, W_t], search [B, 3, H_s, W_s].

        Returns (search_feat [B, D, h, w], template_tokens [B, Lt, D],
        reg_out [B, D] or None).
        """
        templates, search = self._check_inputs(templates, search)
        x, _ = self._run(templates, search, reg_token=reg_token)
        x = self.norm(x)
        lt = self.stage3.layout.template_total
        template_tokens = x[:, :lt]
        search_feat, reg_out = self._search_outputs(x, lt, reg_token)
        return search_feat, template_tokens, reg_out

    def final_block_tokens(self, templates, search):
        """Token sequence entering the last stage-3 block, with its layout;
        used to dump attention weights."""
        templates, search = self._check_inputs(templates, search)
        x, _ = self._run(templates, search, last_block=False)
        return x, self.stage3.layout

    # ------------------------------------------------------------------
    # asymmetric-mode template caching

    def forward_template(self, templates):
        """Run the template trunk alone and cache per-block k/v streams."""
        templates = ad.as_tensor(templates)
        if templates.ndim == 4:
            templates = ad.reshape(templates, (1,) + templates.shape)
        x, kv = self._run(templates)
        return TemplateCache(kv, self.norm(x))

    def forward_search(self, search, cache, reg_token=None):
        """Track one search crop against cached template features.

        Returns the same triple as ``forward`` (template tokens come from the
        cache).
        """
        search = ad.as_tensor(search)
        if search.ndim == 3:
            search = ad.reshape(search, (1,) + search.shape)
        x, _ = self._run(search=search, cache=cache, reg_token=reg_token)
        search_feat, reg_out = self._search_outputs(self.norm(x), 0, reg_token)
        return search_feat, cache.template_tokens, reg_out
