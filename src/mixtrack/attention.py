"""Mixed attention over concatenated template and search tokens.

A token sequence carries T template grids followed by one search grid
(``TokenLayout`` describes the split).  Queries, keys and values are produced
by depth-wise convolutions applied to each region's 2-D map separately, then
shared linear projections.  Keys and values are convolved with stride 2, so
the attended key set is a quarter the size of the query set.

Two attention modes exist.  In full mixed attention both template and search
queries attend the whole (template + search) key set.  In the asymmetric mode
template queries attend template keys only, which makes every template output
independent of the search region and lets a tracker reuse template features
across frames.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .errors import ConfigError, LayoutError, ShapeError, UsageError

FULL_MIXED = "full"
ASYMMETRIC = "asymmetric"
_MODES = (FULL_MIXED, ASYMMETRIC)

DUMP_NAMES = (
    "search_to_template",
    "search_to_online_template",
    "search_to_search",
    "online_template_to_template",
)


def check_mode(mode):
    if mode not in _MODES:
        raise ConfigError(f"attention mode must be one of {_MODES}, got {mode!r}")
    return mode


def _half(n):
    # output extent of a kernel-3 / stride-2 / pad-1 convolution
    return (n - 1) // 2 + 1


@dataclass(frozen=True)
class TokenLayout:
    """Describes how a token sequence splits into template and search grids."""

    templates: int
    t_h: int
    t_w: int
    s_h: int
    s_w: int
    dim: int

    def __post_init__(self):
        for name in ("templates", "t_h", "t_w", "s_h", "s_w", "dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TokenLayout.{name} must be >= 1")

    @property
    def tokens_per_template(self):
        return self.t_h * self.t_w

    @property
    def template_total(self):
        return self.templates * self.t_h * self.t_w

    @property
    def search_total(self):
        return self.s_h * self.s_w

    @property
    def total(self):
        return self.template_total + self.search_total

    def halved(self):
        """Layout of the stride-2 projected key/value grids."""
        return replace(
            self,
            t_h=_half(self.t_h),
            t_w=_half(self.t_w),
            s_h=_half(self.s_h),
            s_w=_half(self.s_w),
        )


def split_and_reshape(tokens, layout):
    """[L, dim] -> (templates [T, dim, t_h, t_w], search [dim, s_h, s_w])."""
    tokens = ad.as_tensor(tokens)
    if tokens.ndim != 2 or tokens.shape != (layout.total, layout.dim):
        raise LayoutError(
            f"token sequence {tokens.shape} does not match layout "
            f"[{layout.total}, {layout.dim}]"
        )
    t = tokens[: layout.template_total]
    s = tokens[layout.template_total :]
    templates = ad.transpose(
        ad.reshape(t, (layout.templates, layout.t_h, layout.t_w, layout.dim)),
        (0, 3, 1, 2),
    )
    search = ad.transpose(
        ad.reshape(s, (layout.s_h, layout.s_w, layout.dim)), (2, 0, 1)
    )
    return templates, search


def flatten_and_concat(templates, search, layout):
    """Exact inverse of split_and_reshape."""
    templates = ad.as_tensor(templates)
    search = ad.as_tensor(search)
    want_t = (layout.templates, layout.dim, layout.t_h, layout.t_w)
    want_s = (layout.dim, layout.s_h, layout.s_w)
    if templates.shape != want_t:
        raise LayoutError(f"template maps {templates.shape}, expected {want_t}")
    if search.shape != want_s:
        raise LayoutError(f"search map {search.shape}, expected {want_s}")
    t = ad.reshape(
        ad.transpose(templates, (0, 2, 3, 1)), (layout.template_total, layout.dim)
    )
    s = ad.reshape(ad.transpose(search, (1, 2, 0)), (layout.search_total, layout.dim))
    return ad.concat([t, s], axis=0)


def _swap_last(x):
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return ad.transpose(x, axes)


def _attend(q, k, v, d, want_weights=False):
    logits = ad.mul(ad.matmul(q, _swap_last(k)), 1.0 / float(np.sqrt(d)))
    w = ad.softmax(logits, axis=-1)
    out = ad.matmul(w, v)
    return (out, w) if want_weights else (out, None)


def _check_streams(q_t, k_t, v_t, q_s, k_s, v_s, d):
    streams = (q_t, k_t, v_t, q_s, k_s, v_s)
    dims = tuple(t.shape[-1] for t in streams)
    if d is None:
        d = dims[0]
    if any(dim != d for dim in dims):
        raise ShapeError(f"key dims differ: {dims} vs d={d}")
    if k_t.shape[-2] != v_t.shape[-2] or k_s.shape[-2] != v_s.shape[-2]:
        raise ShapeError(
            f"key/value token counts disagree: template {k_t.shape[-2]}/"
            f"{v_t.shape[-2]}, search {k_s.shape[-2]}/{v_s.shape[-2]}"
        )
    return d


def mixed_attention(q_t, k_t, v_t, q_s, k_s, v_s, d=None, want_weights=False):
    """Both branches attend the concatenated template+search key set.

    Returns (attention_t, attention_s); with want_weights also the two
    softmax matrices.
    """
    d = _check_streams(q_t, k_t, v_t, q_s, k_s, v_s, d)
    k_m = ad.concat([k_t, k_s], axis=-2)
    v_m = ad.concat([v_t, v_s], axis=-2)
    at, wt = _attend(q_t, k_m, v_m, d, want_weights)
    as_, ws = _attend(q_s, k_m, v_m, d, want_weights)
    if want_weights:
        return at, as_, wt, ws
    return at, as_


def asymmetric_attention(q_t, k_t, v_t, q_s, k_s, v_s, d=None, want_weights=False):
    """Template branch attends template keys only; search branch as in
    mixed_attention."""
    d = _check_streams(q_t, k_t, v_t, q_s, k_s, v_s, d)
    at, wt = _attend(q_t, k_t, v_t, d, want_weights)
    k_m = ad.concat([k_t, k_s], axis=-2)
    v_m = ad.concat([v_t, v_s], axis=-2)
    as_, ws = _attend(q_s, k_m, v_m, d, want_weights)
    if want_weights:
        return at, as_, wt, ws
    return at, as_


def split_heads(x, heads):
    """[B, L, D] -> [B, H, L, D/H]."""
    b, n, dim = x.shape
    return ad.transpose(ad.reshape(x, (b, n, heads, dim // heads)), (0, 2, 1, 3))


def merge_heads(x):
    """[B, H, L, d] -> [B, L, H*d]."""
    b, h, n, d = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, n, h * d))


class MixedAttention(nn.Module):
    """Multi-head mixed attention with per-region depth-wise projections."""

    def __init__(self, dim, heads, rng, mode=FULL_MIXED):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.mode = check_mode(mode)
        self.dw_q = nn.DepthwiseConv(dim, rng, stride=1)
        self.dw_k = nn.DepthwiseConv(dim, rng, stride=2)
        self.dw_v = nn.DepthwiseConv(dim, rng, stride=2)
        self.wq = nn.Linear(dim, dim, rng)
        self.wk = nn.Linear(dim, dim, rng)
        self.wv = nn.Linear(dim, dim, rng)
        self.wo = nn.Linear(dim, dim, rng)

    def _region_conv(self, tokens, n_maps, h, w, conv):
        """Tokens of one region -> 2-D maps -> conv -> tokens again."""
        b = tokens.shape[0]
        maps = ad.transpose(
            ad.reshape(tokens, (b * n_maps, h, w, self.dim)), (0, 3, 1, 2)
        )
        out = conv(maps)
        oh, ow = out.shape[2], out.shape[3]
        back = ad.reshape(
            ad.transpose(out, (0, 2, 3, 1)), (b, n_maps * oh * ow, self.dim)
        )
        return back

    def _projected_streams(self, x, layout, extra):
        """Split x into regions, conv-project per role, return token streams."""
        lt = layout.template_total
        t_tok = x[:, :lt]
        s_tok = x[:, lt : layout.total]
        q_parts = [
            self._region_conv(t_tok, layout.templates, layout.t_h, layout.t_w, self.dw_q),
            self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_q),
        ]
        if extra:
            q_parts.append(x[:, layout.total :])
        k_parts = [
            self._region_conv(t_tok, layout.templates, layout.t_h, layout.t_w, self.dw_k),
            self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_k),
        ]
        v_parts = [
            self._region_conv(t_tok, layout.templates, layout.t_h, layout.t_w, self.dw_v),
            self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_v),
        ]
        q = split_heads(self.wq(ad.concat(q_parts, axis=1)), self.heads)
        k = split_heads(self.wk(ad.concat(k_parts, axis=1)), self.heads)
        v = split_heads(self.wv(ad.concat(v_parts, axis=1)), self.heads)
        return q, k, v

    def __call__(self, x, layout, extra=0, want_weights=False):
        """x: [B, layout.total + extra, dim]; extra tokens query all keys but
        are never keys themselves."""
        if x.ndim != 3 or x.shape[1] != layout.total + extra or x.shape[2] != self.dim:
            raise LayoutError(
                f"tokens {x.shape} do not match layout total {layout.total} "
                f"+ extra {extra}, dim {self.dim}"
            )
        half = layout.halved()
        lt = layout.template_total
        kt = half.template_total
        q, k, v = self._projected_streams(x, layout, extra)
        dh = self.dim // self.heads
        attend = mixed_attention if self.mode == FULL_MIXED else asymmetric_attention
        out = attend(
            q[:, :, :lt],
            k[:, :, :kt],
            v[:, :, :kt],
            q[:, :, lt:],
            k[:, :, kt:],
            v[:, :, kt:],
            d=dh,
            want_weights=want_weights,
        )
        at, as_ = out[0], out[1]
        y = self.wo(merge_heads(ad.concat([at, as_], axis=2)))
        if want_weights:
            return y, (out[2], out[3])
        return y

    def forward_template(self, x, layout):
        """Template-only pass; asymmetric mode only.

        x is [B, layout.template_total, dim].  Returns (y_t, (k_t, v_t)) with
        the head-split key/value streams for reuse by forward_search.
        """
        if self.mode != ASYMMETRIC:
            raise ConfigError("template-only pass requires asymmetric attention")
        if x.ndim != 3 or x.shape[1] != layout.template_total or x.shape[2] != self.dim:
            raise LayoutError(
                f"template tokens {x.shape} do not match layout "
                f"[{layout.template_total}, {self.dim}]"
            )
        args = (layout.templates, layout.t_h, layout.t_w)
        q = split_heads(self.wq(self._region_conv(x, *args, self.dw_q)), self.heads)
        k = split_heads(self.wk(self._region_conv(x, *args, self.dw_k)), self.heads)
        v = split_heads(self.wv(self._region_conv(x, *args, self.dw_v)), self.heads)
        at, _ = _attend(q, k, v, self.dim // self.heads)
        return self.wo(merge_heads(at)), (k, v)

    def forward_search(self, x, layout, kv, extra=0):
        """Search-only pass against cached template keys/values.

        x is [B, layout.search_total + extra, dim]; kv the pair returned by
        forward_template with the same batch size.
        """
        if x.ndim != 3 or x.shape[1] != layout.search_total + extra or x.shape[2] != self.dim:
            raise LayoutError(
                f"search tokens {x.shape} do not match layout "
                f"[{layout.search_total} + {extra}, {self.dim}]"
            )
        k_t, v_t = kv
        s_tok = x[:, : layout.search_total]
        q_tok = self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_q)
        if extra:
            q_tok = ad.concat([q_tok, x[:, layout.search_total :]], axis=1)
        q = split_heads(self.wq(q_tok), self.heads)
        k_s = split_heads(
            self.wk(self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_k)),
            self.heads,
        )
        v_s = split_heads(
            self.wv(self._region_conv(s_tok, 1, layout.s_h, layout.s_w, self.dw_v)),
            self.heads,
        )
        k_m = ad.concat([k_t, k_s], axis=-2)
        v_m = ad.concat([v_t, v_s], axis=-2)
        as_, _ = _attend(q, k_m, v_m, self.dim // self.heads)
        return self.wo(merge_heads(as_))


class MAMBlock(nn.Module):
    """Pre-norm residual block: x + Attn(LN(x)), then y + MLP(LN(y))."""

    def __init__(self, dim, heads, mlp_ratio, rng, mode=FULL_MIXED):
        self.norm1 = nn.LayerNorm(dim)
        self.attn = MixedAttention(dim, heads, rng, mode=mode)
        self.norm2 = nn.LayerNorm(dim)
        self.mlp = nn.Mlp(dim, mlp_ratio, rng)

    def __call__(self, x, layout, extra=0):
        x = ad.add(x, self.attn(self.norm1(x), layout, extra))
        return ad.add(x, self.mlp(self.norm2(x)))

    def attention_weights(self, x, layout, extra=0):
        """Softmax matrices of this block's attention at input x."""
        _, weights = self.attn(self.norm1(x), layout, extra, want_weights=True)
        return weights

    def forward_template(self, x, layout):
        a, kv = self.attn.forward_template(self.norm1(x), layout)
        x = ad.add(x, a)
        return ad.add(x, self.mlp(self.norm2(x))), kv

    def forward_search(self, x, layout, kv, extra=0):
        x = ad.add(x, self.attn.forward_search(self.norm1(x), layout, kv, extra))
        return ad.add(x, self.mlp(self.norm2(x)))


def attention_weights_dump(block, tokens, layout, names=None):
    """Slice a block's attention weights into named query->key maps.

    ``tokens`` is [layout.total, dim] or [1, layout.total, dim].  Weights are
    averaged over heads.  Each returned array is [n_queries, n_keys]; a query
    row reshapes to the halved key grid of its slice.  Maps involving an
    online template need layout.templates >= 2; requesting one otherwise
    raises UsageError.  In asymmetric mode template queries hold no weights
    over search keys, so no such map exists to dump.
    """
    tokens = ad.as_tensor(tokens)
    if tokens.ndim == 2:
        tokens = ad.reshape(tokens, (1,) + tokens.shape)
    if names is None:
        names = [n for n in DUMP_NAMES if layout.templates >= 2 or "online" not in n]
    for name in names:
        if name not in DUMP_NAMES:
            raise UsageError(f"unknown attention map {name!r}")
        if "online" in name and layout.templates < 2:
            raise UsageError(
                f"map {name!r} needs at least 2 templates, layout has "
                f"{layout.templates}"
            )
    wt, ws = block.attention_weights(tokens, layout)
    wt = wt.numpy().mean(axis=1)[0]
    ws = ws.numpy().mean(axis=1)[0]
    half = layout.halved()
    kt_one = half.tokens_per_template
    kt = half.template_total
    lt_one = layout.tokens_per_template
    out = {}
    for name in names:
        if name == "search_to_template":
            out[name] = ws[:, :kt_one]
        elif name == "search_to_online_template":
            out[name] = ws[:, kt_one : 2 * kt_one]
        elif name == "search_to_search":
            out[name] = ws[:, kt:]
        elif name == "online_template_to_template":
            # queries of the first online template attending the static one
            out[name] = wt[lt_one : 2 * lt_one, :kt_one]
    return out
