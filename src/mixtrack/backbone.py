"""Three-stage backbone over mixed-attention blocks.

Each stage embeds every region map with an overlapped strided convolution
(template maps and the search map separately, so grids stay rectangular),
concatenates the token streams, and runs its attention blocks.  Stage
boundaries convert tokens back to 2-D maps for the next embedding, and a
layer norm is applied to the full output sequence before the heads consume
it.

One stage loop, ``Backbone._run``, does this for every pass, over the regions
it is given.  ``forward`` runs templates and search as one sequence per stage,
and ``final_block_tokens`` runs the same up to the last block.  In asymmetric
mode the template half never reads search tokens, so ``forward_template``
runs the template trunk alone and caches each block's template keys and
values, and ``forward_search`` runs the search rows alone against the cache,
with the same bits as ``forward``.
"""

from dataclasses import dataclass

from . import autodiff as ad
from . import nn
from .attention import ASYMMETRIC, MAMBlock, TokenLayout, check_mode
from .autodiff import Tensor, _conv_out_extent
from .checkpoint import Stored
from .errors import ConfigError, ShapeError

PRESET_NAMES = ("mixformer", "mixformer_l", "tiny")
# (kernel, stride) of each stage's overlapped patch embedding
_EMBED = ((7, 4), (3, 2), (3, 2))


def _part(x, start, stop, axis):
    """x[start:stop] along ``axis``; x itself when that is all of it."""
    if start == 0 and stop == x.shape[axis]:
        return x
    return x[(slice(None),) * axis + (slice(start, stop),)]


def _cat(parts, axis):
    """Concatenation of parts along ``axis``; a lone part as it is."""
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=axis)


def _tokens_to_map(tokens, b, n_maps, side, d):
    """[B, n_maps*side*side, d] tokens -> [B*n_maps, d, side, side] maps."""
    return ad.transpose(ad.reshape(tokens, (b * n_maps, side, side, d)), (0, 3, 1, 2))


@dataclass(frozen=True)
class StageConfig:
    dim: int
    blocks: int
    heads: int

    def __post_init__(self):
        for name in ("dim", "blocks", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"StageConfig.{name} must be >= 1")
        if self.dim % self.heads != 0:
            raise ConfigError(
                f"stage dim {self.dim} not divisible by heads {self.heads}"
            )


@dataclass(frozen=True)
class BackboneConfig:
    """A backbone's stages and its square crop sizes (crop side in pixels)."""

    stages: tuple
    template_size: int
    search_size: int
    templates: int
    mode: str

    def __post_init__(self):
        if len(self.stages) != 3:
            raise ConfigError(f"expected 3 stages, got {len(self.stages)}")
        for name in ("template_size", "search_size"):
            size = getattr(self, name)
            if size % 16 or size < 16:
                raise ConfigError(f"{name} {size} must be a positive multiple of 16")
        if self.templates < 1:
            raise ConfigError(
                f"template count must be >= 1 (the static template plus "
                f"online_templates), got {self.templates}"
            )
        check_mode(self.mode)

    def stage_layouts(self):
        """Token layout after each stage's embedding."""
        t, s = self.template_size, self.search_size
        out = []
        for stage, (kernel, stride) in zip(self.stages, _EMBED):
            t = _conv_out_extent(t, kernel, stride, kernel // 2)
            s = _conv_out_extent(s, kernel, stride, kernel // 2)
            out.append(TokenLayout(self.templates, t, s, stage.dim))
        return out

    @property
    def out_dim(self):
        return self.stages[2].dim


def preset(name, templates, mode):
    """Named architecture: mixformer, mixformer_l, or tiny."""
    table = {
        "mixformer": ((64, 192, 384), (1, 4, 16), (1, 3, 6), 128, 320),
        "mixformer_l": ((192, 768, 1024), (2, 2, 12), (3, 12, 16), 128, 320),
        "tiny": ((16, 32, 64), (1, 1, 2), (1, 2, 4), 32, 64),
    }
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    dims, blocks, heads, t_size, s_size = table[name]
    stages = tuple(StageConfig(*row) for row in zip(dims, blocks, heads))
    return BackboneConfig(stages, t_size, s_size, templates, mode)


def count_params_flops(config):
    """Parameter count and multiply-accumulate estimate for one forward.

    Parameters are exact: they are counted off a backbone built around
    ``checkpoint.Stored`` placeholders, which hold no memory and draw
    nothing.  The flops figure counts multiply-accumulates of convolutions,
    attention matmuls and linear layers (norms, softmax and activations are
    omitted); one fused multiply-add counts as one flop.  Returns totals
    plus a per-stage breakdown.
    """
    net = Backbone(config, Stored({}))
    stages_out = []
    total_flops = 0
    for idx, stage in enumerate(net._stages(), start=1):
        layout = stage.layout
        d = layout.dim
        half = layout.halved()
        n_q = layout.total
        n_kt, n_ks = half.template_total, half.search_total
        n_k = n_kt + n_ks

        flops = n_q * stage.embed.conv.w.size       # embed conv, one per token
        per_block_f = n_q * d * 9                   # stride-1 depth-wise q
        per_block_f += 2 * n_k * d * 9              # stride-2 depth-wise k, v
        per_block_f += 2 * n_q * d * d              # wq, wo
        per_block_f += 2 * n_k * d * d              # wk, wv
        if config.mode == ASYMMETRIC:
            attended = layout.template_total * n_kt + layout.search_total * n_k
        else:
            attended = n_q * n_k
        per_block_f += 2 * attended * d             # q.kT and weights.v
        per_block_f += 2 * n_q * d * nn.MLP_RATIO * d   # the two mlp linears
        flops += len(stage.block) * per_block_f

        params = sum(p.size for p in stage.named_params().values())
        stages_out.append({"name": f"stage{idx}", "params": params, "flops": flops})
        total_flops += flops

    total_params = sum(p.size for p in net.named_params().values())
    return {"params": total_params, "flops": total_flops, "stages": stages_out}


class PatchEmbed(nn.Module):
    """Overlapped convolutional embedding followed by a token layer norm."""

    def __init__(self, c_in, dim, kernel, stride, init):
        self.conv = nn.Conv2d(c_in, dim, kernel, stride, kernel // 2, init)
        self.norm = nn.LayerNorm(dim)

    def __call__(self, x):
        """[B, C, H, W] -> [B, H'*W', D]."""
        y = self.conv(x)
        b, d, h, w = y.shape
        tok = ad.reshape(ad.transpose(y, (0, 2, 3, 1)), (b, h * w, d))
        return self.norm(tok)


class Stage(nn.Module):
    def __init__(self, c_in, cfg, embed, layout, init, mode):
        self.layout = layout
        self.embed = PatchEmbed(c_in, cfg.dim, *embed, init)
        self.block = [
            MAMBlock(cfg.dim, cfg.heads, init, mode=mode)
            for _ in range(cfg.blocks)
        ]


@dataclass(frozen=True)
class TemplateCache:
    """Frozen template-side state for asymmetric tracking.

    ``kv`` holds, per stage, one (k, v) pair per block: the projected
    template keys and values as token rows [B, Lk_t, D], which a cached
    pass concatenates with its search rows.  ``template_tokens`` is the
    final normed template sequence.
    """

    kv: list
    template_tokens: Tensor


class Backbone(nn.Module):
    """The full three-stage trunk."""

    def __init__(self, config, init):
        self.config = config
        s1, s2, s3 = config.stages
        e1, e2, e3 = _EMBED
        l1, l2, l3 = config.stage_layouts()
        self.stage1 = Stage(3, s1, e1, l1, init, config.mode)
        self.stage2 = Stage(s1.dim, s2, e2, l2, init, config.mode)
        self.stage3 = Stage(s2.dim, s3, e3, l3, init, config.mode)
        self.norm = nn.LayerNorm(s3.dim)

    def _stages(self):
        return (self.stage1, self.stage2, self.stage3)

    def _check_search(self, search, batch):
        """The search crops as a Tensor, checked to be [batch, 3, H, W] at
        the configured search size."""
        size = self.config.search_size
        s = ad.as_tensor(search)
        if s.ndim != 4 or s.shape[1] != 3 or s.shape[2:] != (size, size):
            raise ShapeError(
                f"search must be [B, 3, {size}, {size}], got {s.shape}"
            )
        if s.shape[0] != batch:
            raise ShapeError(
                f"batch mismatch: {batch} templates vs {s.shape[0]} search"
            )
        return s

    def _check_templates(self, templates):
        """The template crops as a Tensor, checked to be [B, T, 3, H, W] at
        the configured count and size."""
        cfg = self.config
        t = ad.as_tensor(templates)
        if t.ndim != 5 or t.shape[1] != cfg.templates or t.shape[2] != 3:
            raise ShapeError(
                f"templates must be [B, {cfg.templates}, 3, H, W], got {t.shape}"
            )
        if t.shape[3:] != (cfg.template_size,) * 2:
            raise ShapeError(
                f"template size {t.shape[3:]} != configured "
                f"{cfg.template_size}x{cfg.template_size}"
            )
        return t

    def _check_inputs(self, templates, search):
        t = self._check_templates(templates)
        return t, self._check_search(search, t.shape[0])

    def _run(self, templates=None, search=None, cache=None, last_block=True):
        """The one stage loop, over the regions given.

        ``templates`` is [B, T, 3, H, W], or None when ``cache`` holds the
        template side; ``search`` is [B, 3, H, W], or None for a
        template-only pass.  Each stage embeds the maps present,
        concatenates their tokens (template rows, then search rows) and runs
        its blocks; between stages the rows become maps again.
        ``last_block=False`` stops before the last stage-3 block.

        Returns the last token sequence, before the final norm, and per
        stage the (k, v) rows each block attended.
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
            x = _cat(parts, 1)
            blocks = stage.block if last_block or i < 2 else stage.block[:-1]
            kvs = cache.kv[i] if cache is not None else [None] * len(blocks)
            kv_all.append([])
            for blk, kv in zip(blocks, kvs):
                x, kv = blk(x, layout, kv=kv, search=bool(ls))
                kv_all[-1].append(kv)
            if i < 2 and lt:
                t_maps = _tokens_to_map(_part(x, 0, lt, 1), b, n_t, layout.t, layout.dim)
            if i < 2 and ls:
                s_map = _tokens_to_map(_part(x, lt, lt + ls, 1), b, 1, layout.s, layout.dim)
        return x, kv_all

    def _search_feat(self, x, start):
        """search_feat [B, D, h, w] from the normed final sequence x whose
        search rows begin at row ``start``."""
        layout = self.stage3.layout
        s_out = _part(x, start, start + layout.search_total, 1)
        return _tokens_to_map(s_out, x.shape[0], 1, layout.s, layout.dim)

    # reg_token is unused and stays only because perfbench/tracing.py passes it
    def forward(self, templates, search, reg_token=None):
        """templates [B, T, 3, H_t, W_t], search [B, 3, H_s, W_s].

        Returns (search_feat [B, D, h, w], template_tokens [B, Lt, D]).
        """
        templates, search = self._check_inputs(templates, search)
        x, _ = self._run(templates, search)
        x = self.norm(x)
        lt = self.stage3.layout.template_total
        template_tokens = x[:, :lt]
        return self._search_feat(x, lt), template_tokens

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
        x, kv = self._run(self._check_templates(templates))
        return TemplateCache(kv, self.norm(x))

    def forward_search(self, search, cache):
        """Track one search crop against cached template features.

        Returns the same pair as ``forward`` (template tokens come from the
        cache).
        """
        search = self._check_search(search, cache.template_tokens.shape[0])
        x, _ = self._run(search=search, cache=cache)
        return self._search_feat(self.norm(x), 0), cache.template_tokens
