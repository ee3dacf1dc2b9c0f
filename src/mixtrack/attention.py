"""Mixed attention over template and search tokens.

A token sequence carries T template grids followed by one search grid
(``TokenLayout`` describes the split).  Queries, keys and values are produced
by depth-wise convolutions applied to each region's 2-D maps separately, then
shared linear projections.  A region's tokens are row-major over its grid
with channels last.  Keys and values are convolved with stride 2, so the
attended key set is a quarter the size of the query set.

Two attention modes exist.  In full mixed attention both template and search
queries attend the whole (template + search) key set.  In the asymmetric mode
template queries attend template keys only, which makes every template output
independent of the search region and lets a tracker reuse template features
across frames.

The block keeps its tokens in one [B, L, C] layout from start to end, and
each step is one autodiff op.  ``ad.depthwise_conv2d`` takes the block's
rows with their region grids (the T template maps, then the search map) and
returns one role's q, k or v rows in order; ``ad.linear`` is the projection;
``ad.attention`` splits and merges the heads as views and runs template and
search queries in one call, the template rows attending the template keys
only in the asymmetric mode.  The template keys and values stay rows of the
projected k and v, so the joint pass never cuts them out, and a cached pass
concatenates the cached rows with its own search rows.  Every op gives the
same bits as the per-region, head-split chain it replaced.

``MixedAttention.project`` alone builds q, k, v and the query split: the
block attends with them, and ``attention_weights_dump`` hands q and k to
``ad.attention_weights``.  No pass keeps the softmax matrices.

Keys and values carry no bias, in neither projection.  A key bias b adds the
same q.b to every logit of a query's row, and softmax ignores a constant
shift of its logits, so the bias could never change an output.  A value bias
c adds c to every value row, and each query's weights sum to one, so it
shifts every attention row by c, which ``wo`` maps to a constant that its
own bias already covers.  q's depth-wise conv has no bias either, since
``wq``'s bias covers it.
"""

from dataclasses import dataclass, replace

from . import autodiff as ad
from . import nn
from .autodiff import _conv_out_extent
from .errors import ConfigError, LayoutError

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


@dataclass(frozen=True)
class TokenLayout:
    """Describes how a token sequence splits into template and search grids:
    ``templates`` square grids of side ``t``, then one of side ``s``."""

    templates: int
    t: int
    s: int
    dim: int

    def __post_init__(self):
        for name in ("templates", "t", "s", "dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TokenLayout.{name} must be >= 1")

    @property
    def tokens_per_template(self):
        return self.t * self.t

    @property
    def template_total(self):
        return self.templates * self.t * self.t

    @property
    def search_total(self):
        return self.s * self.s

    @property
    def total(self):
        return self.template_total + self.search_total

    def halved(self):
        """Layout of the stride-2 projected key/value grids."""
        return replace(self, t=_conv_out_extent(self.t, 3, 2, 1),
                       s=_conv_out_extent(self.s, 3, 2, 1))


class MixedAttention(nn.Module):
    """Multi-head mixed attention with per-region depth-wise projections."""

    def __init__(self, dim, heads, init, mode):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.mode = check_mode(mode)
        self.dw_q = ad.Tensor(init.depthwise_kernel(dim), requires_grad=True)
        self.dw_k = ad.Tensor(init.depthwise_kernel(dim), requires_grad=True)
        self.dw_v = ad.Tensor(init.depthwise_kernel(dim), requires_grad=True)
        self.wq = nn.Linear(dim, dim, init)
        self.wk = ad.Tensor(init.trunc_normal((dim, dim)), requires_grad=True)
        self.wv = ad.Tensor(init.trunc_normal((dim, dim)), requires_grad=True)
        self.wo = nn.Linear(dim, dim, init)

    def project(self, x, layout, kv, search):
        """(q, k, v, split) of the regions that x holds, in this order.

        x is [B, rows, dim]: the template rows, unless ``kv`` holds their
        cached keys and values, then the search rows, unless ``search`` is
        false.  Template queries attend every key in full mode and the
        template keys only in asymmetric mode, the one mode that allows a
        template-only or a cached pass.  k and v hold every key and value
        row that the queries attend, the template rows first, each
        [B, rows, dim], and ``split`` is the query split of
        ``ad.attention``.
        """
        if (kv is not None or not search) and self.mode != ASYMMETRIC:
            raise ConfigError("template caching requires asymmetric attention")
        lt = layout.template_total if kv is None else 0
        ls = layout.search_total if search else 0
        if x.ndim != 3 or x.shape[1] != lt + ls or x.shape[2] != self.dim:
            raise LayoutError(
                f"tokens {x.shape} do not match {lt} template + {ls} search "
                f"rows of dim {self.dim}"
            )
        grids = []
        if lt:
            grids.append((layout.templates, layout.t, layout.t))
        if ls:
            grids.append((1, layout.s, layout.s))
        q, k, v = (ad.depthwise_conv2d(x, grids, kernel, stride=stride, pad=1)
                   for kernel, stride in ((self.dw_q, 1), (self.dw_k, 2), (self.dw_v, 2)))
        q, k, v = self.wq(q), ad.linear(k, self.wk), ad.linear(v, self.wv)
        if kv is not None:
            k, v = (ad.concat([cached, fresh], axis=1) for cached, fresh in zip(kv, (k, v)))
        split = None
        if lt and ls:
            # full mode splits too, at every key: the key gradient then adds
            # two groups' products, where one group would sum all rows in one
            # matmul, in another order and so to other training bits
            keys = layout.halved().template_total if self.mode == ASYMMETRIC else k.shape[1]
            split = (lt, keys)
        return q, k, v, split

    def __call__(self, x, layout, kv=None, search=True):
        """Attention over the regions that x holds (see ``project``).

        Returns (y, (k, v)) with every key and value row it attended, the
        template rows first; a template-only pass's are what a cache holds.
        """
        q, k, v, split = self.project(x, layout, kv, search)
        return self.wo(ad.attention(q, k, v, self.heads, split)), (k, v)


class MAMBlock(nn.Module):
    """Pre-norm residual block: x + Attn(LN(x)), then y + MLP(LN(y))."""

    def __init__(self, dim, heads, init, mode):
        self.norm1 = nn.LayerNorm(dim)
        self.attn = MixedAttention(dim, heads, init, mode)
        self.norm2 = nn.LayerNorm(dim)
        self.mlp = nn.Mlp(dim, init)

    def __call__(self, x, layout, kv=None, search=True):
        """One block over the regions x holds (see ``MixedAttention``).

        Returns (y, (k, v)) with the key and value rows its attention
        attended; a template-only pass caches them.
        """
        a, kv = self.attn(self.norm1(x), layout, kv=kv, search=search)
        x = ad.add(x, a)
        return ad.add(x, self.mlp(self.norm2(x))), kv

    # The template-only and cached passes run the same entry; the names stay
    # because the benchmark tracer (perfbench/tracing.py) wraps them.
    forward_template = forward_search = __call__


def attention_weights_dump(block, tokens, layout):
    """Slice a block's attention weights into every named query->key map.

    ``tokens`` is [1, layout.total, dim], the block's input.  Weights are
    averaged over heads.  Each returned array is [n_queries, n_keys]; a query
    row reshapes to the halved key grid of its slice.  Maps involving an
    online template exist only when layout.templates >= 2.  In asymmetric
    mode template queries hold no weights over search keys, so no such map
    exists to dump.
    """
    names = [n for n in DUMP_NAMES if layout.templates >= 2 or "online" not in n]
    attn = block.attn
    q, k, _, split = attn.project(block.norm1(tokens), layout, None, True)
    wt, ws = (w.mean(axis=1)[0] for w in ad.attention_weights(q, k, attn.heads, split))
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
