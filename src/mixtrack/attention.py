"""Mixed attention over template and search tokens.

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

``MixedAttention`` has one attention method for every pass.  It projects the
regions present, template and/or search, with one per-region helper, takes
the template's fresh rows or its cached keys and values, and returns its
output with the template keys and values it used.  ``MAMBlock`` wraps it in
the pre-norm residual block and has one entry likewise.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .errors import ConfigError, LayoutError, UsageError

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


def _swap_last(x):
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return ad.transpose(x, axes)


def _part(x, start, stop, axis):
    """x[start:stop] along ``axis``; x itself when that is all of it."""
    if start == 0 and stop == x.shape[axis]:
        return x
    return x[(slice(None),) * axis + (slice(start, stop),)]


def _cat(parts, axis):
    """Concatenation of parts along ``axis``; a lone part as it is."""
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=axis)


def _tokens_to_map(tokens, b, n_maps, h, w, d):
    """[B, n_maps*h*w, d] tokens -> [B*n_maps, d, h, w] maps."""
    return ad.transpose(ad.reshape(tokens, (b * n_maps, h, w, d)), (0, 3, 1, 2))


def _attend(q, k, v, d, want_weights=False):
    logits = ad.mul(ad.matmul(q, _swap_last(k)), 1.0 / float(np.sqrt(d)))
    w = ad.softmax(logits, axis=-1)
    out = ad.matmul(w, v)
    return (out, w) if want_weights else (out, None)


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

    def _qkv(self, tokens, n_maps, h, w):
        """One region's tokens [B, n_maps*h*w, dim] -> its q, k and v token
        streams: 2-D maps, depth-wise conv per role, tokens again."""
        b = tokens.shape[0]
        maps = _tokens_to_map(tokens, b, n_maps, h, w, self.dim)
        streams = []
        for conv in (self.dw_q, self.dw_k, self.dw_v):
            out = conv(maps)
            n = n_maps * out.shape[2] * out.shape[3]
            streams.append(
                ad.reshape(ad.transpose(out, (0, 2, 3, 1)), (b, n, self.dim))
            )
        return streams

    def __call__(self, x, layout, extra=0, kv=None, search=True, want_weights=False):
        """Attention over the regions that x holds, in this order.

        x is [B, rows, dim]: the template rows, unless ``kv`` holds their
        cached head-split keys and values; the search rows, unless ``search``
        is false; then ``extra`` rows that query every key but are never keys
        themselves.  Template queries attend every key in full mode and the
        template keys only in asymmetric mode, the one mode that allows a
        template-only or a cached pass.

        Returns (y, (k_t, v_t)) with the template's head-split keys and
        values; with want_weights also the softmax matrices of the template
        queries and of the others, those present.
        """
        if (kv is not None or not search) and self.mode != ASYMMETRIC:
            raise ConfigError("template caching requires asymmetric attention")
        lt = layout.template_total if kv is None else 0
        ls = layout.search_total if search else 0
        n_q = lt + ls + extra
        if x.ndim != 3 or x.shape[1] != n_q or x.shape[2] != self.dim:
            raise LayoutError(
                f"tokens {x.shape} do not match {lt} template + {ls} search "
                f"+ {extra} extra rows of dim {self.dim}"
            )
        regions = []
        if lt:
            t_tok = _part(x, 0, lt, 1)
            regions.append(self._qkv(t_tok, layout.templates, layout.t_h, layout.t_w))
        if ls:
            s_tok = _part(x, lt, lt + ls, 1)
            regions.append(self._qkv(s_tok, 1, layout.s_h, layout.s_w))
        q_parts, k_parts, v_parts = (list(p) for p in zip(*regions))
        if extra:
            q_parts.append(x[:, lt + ls :])
        q, k, v = (
            split_heads(proj(_cat(parts, 1)), self.heads)
            for proj, parts in ((self.wq, q_parts), (self.wk, k_parts), (self.wv, v_parts))
        )
        if kv is not None:
            (k_t, v_t), k_s, v_s = kv, k, v
        elif ls:
            kt = layout.halved().template_total
            k_t, k_s = k[:, :, :kt], k[:, :, kt:]
            v_t, v_s = v[:, :, :kt], v[:, :, kt:]
        else:
            k_t, v_t = k, v
        if ls:
            # search queries attend one C-order copy of the template then the
            # search keys in every pass; attending the uncut projections gives
            # the same forward bits but other gradient bits
            k, v = ad.concat([k_t, k_s], axis=-2), ad.concat([v_t, v_s], axis=-2)
        d = self.dim // self.heads
        outs = []
        if lt:
            keys = (k_t, v_t) if self.mode == ASYMMETRIC else (k, v)
            outs.append(_attend(_part(q, 0, lt, 2), *keys, d, want_weights))
        if n_q > lt:
            outs.append(_attend(_part(q, lt, n_q, 2), k, v, d, want_weights))
        y = self.wo(merge_heads(_cat([out for out, _ in outs], 2)))
        if want_weights:
            return y, (k_t, v_t), tuple(w for _, w in outs)
        return y, (k_t, v_t)


class MAMBlock(nn.Module):
    """Pre-norm residual block: x + Attn(LN(x)), then y + MLP(LN(y))."""

    def __init__(self, dim, heads, mlp_ratio, rng, mode=FULL_MIXED):
        self.norm1 = nn.LayerNorm(dim)
        self.attn = MixedAttention(dim, heads, rng, mode=mode)
        self.norm2 = nn.LayerNorm(dim)
        self.mlp = nn.Mlp(dim, mlp_ratio, rng)

    def __call__(self, x, layout, extra=0, kv=None, search=True):
        """One block over the regions x holds (see ``MixedAttention``).

        Returns (y, (k_t, v_t)) with the template keys and values of its
        attention, which a template-only pass caches.
        """
        a, kv = self.attn(self.norm1(x), layout, extra, kv=kv, search=search)
        x = ad.add(x, a)
        return ad.add(x, self.mlp(self.norm2(x))), kv

    # The template-only and cached passes run the same entry; the names stay
    # because the benchmark tracer (perfbench/tracing.py) wraps them.
    forward_template = forward_search = __call__

    def attention_weights(self, x, layout, extra=0):
        """Softmax matrices of this block's attention at input x."""
        _, _, weights = self.attn(self.norm1(x), layout, extra, want_weights=True)
        return weights


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
