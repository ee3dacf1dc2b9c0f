import numpy as np
import pytest

from mixtrack import attention as att
from mixtrack import autodiff as ad
from mixtrack import nn
from mixtrack.autodiff import Tensor
from mixtrack.errors import ConfigError, LayoutError, ShapeError

from gradcheck import grad_check


def brute_force_attention(q, k, v, d, masked_cols=()):
    """Scalar-loop softmax attention used as the oracle."""
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = np.array(
            [float(np.dot(q[i], k[j])) / np.sqrt(d) for j in range(k.shape[0])]
        )
        for c in masked_cols:
            logits[c] = -np.inf
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        for j in range(k.shape[0]):
            out[i] += w[j] * v[j]
    return out


def small_layout(dim=8):
    return att.TokenLayout(templates=2, t=2, s=4, dim=dim)


def rand_streams(rng, lt, ls, d, kt=None, ks=None):
    kt = lt if kt is None else kt
    ks = ls if ks is None else ks
    mk = lambda n: Tensor(rng.normal(size=(n, d)).astype(np.float32))
    return mk(lt), mk(kt), mk(kt), mk(ls), mk(ks), mk(ks)


# ---------------------------------------------------------------------------
# TokenLayout


def test_layout_totals():
    lay = att.TokenLayout(templates=2, t=32, s=80, dim=64)
    assert lay.total == 8448
    assert lay.template_total == 2048
    assert lay.search_total == 6400


def test_layout_halved_extents():
    lay = small_layout()
    half = lay.halved()
    assert (half.t, half.s) == (1, 2)
    assert att.TokenLayout(1, 5, 20, 4).halved().s == 10


def test_layout_rejects_bad_extents():
    with pytest.raises(ConfigError):
        att.TokenLayout(0, 2, 4, 8)
    with pytest.raises(ConfigError):
        att.TokenLayout(1, 2, 0, 8)


# ---------------------------------------------------------------------------
# conv projections


def convs(attn):
    """The q, k and v depth-wise projections: bare kernels, no bias, q at
    stride 1 and k, v at stride 2."""
    return tuple(
        lambda x, grids, kernel=kernel, stride=stride: ad.depthwise_conv2d(
            x, grids, kernel, stride=stride, pad=1)
        for kernel, stride in ((attn.dw_q, 1), (attn.dw_k, 2), (attn.dw_v, 2))
    )


def projections(attn, x, grids):
    """The q, k and v depth-wise projections of token rows x over grids."""
    return tuple(conv(x, grids) for conv in convs(attn))


def test_conv_projection_extents():
    rng = np.random.default_rng(1)
    attn = att.MixedAttention(dim=4, heads=1, init=nn.Draw(rng), mode=att.FULL_MIXED)
    tokens = Tensor(rng.normal(size=(2, 3 * 400 + 36, 4)).astype(np.float32))
    q, k, v = projections(attn, tokens, [(3, 20, 20)])
    assert q.shape == (2, 3 * 400, 4)
    assert k.shape == v.shape == (2, 3 * 100, 4)
    q, k, v = projections(attn, tokens, [(3, 20, 20), (1, 6, 6)])
    assert q.shape == (2, 3 * 400 + 36, 4)
    assert k.shape == v.shape == (2, 3 * 100 + 9, 4)


def test_template_projections_independent():
    rng = np.random.default_rng(2)
    lay = small_layout()
    attn = att.MixedAttention(dim=lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    x = rng.normal(size=(1, lay.template_total, lay.dim)).astype(np.float32)
    x2 = x.copy()
    x2[:, lay.tokens_per_template :] = 0.0
    grids = [(lay.templates, lay.t, lay.t)]
    q1, k1, v1 = projections(attn, Tensor(x), grids)
    q2, k2, v2 = projections(attn, Tensor(x2), grids)
    n = lay.tokens_per_template
    nh = lay.halved().tokens_per_template
    np.testing.assert_array_equal(q1.numpy()[:, :n], q2.numpy()[:, :n])
    np.testing.assert_array_equal(k1.numpy()[:, :nh], k2.numpy()[:, :nh])
    np.testing.assert_array_equal(v1.numpy()[:, :nh], v2.numpy()[:, :nh])


# ---------------------------------------------------------------------------
# attention cores


@pytest.mark.parametrize("split", [None, (6, 20), (6, 8)])
def test_constant_value_row_shifts_the_output_by_itself(split):
    """The premise that lets the value projections drop their bias: each
    query group's weights sum to one, so adding one row c to every value row
    shifts every output row by c.  Cases: no split, a split at every key,
    and an asymmetric split whose first group attends 8 of 20 keys.  In
    float32 the weights sum to one only within rounding, so the shift holds
    to 16 ulps of the largest |v| + |c|."""
    rng = np.random.default_rng(38)
    q, k, v = (rng.normal(size=(2, n, 8)).astype(np.float32) for n in (15, 20, 20))
    c = (3.0 * rng.normal(size=8)).astype(np.float32)
    y = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, split).numpy()
    y_c = ad.attention(Tensor(q), Tensor(k), Tensor(v + c), 2, split).numpy()
    tol = 16 * np.finfo(np.float32).eps * (np.abs(v).max() + np.abs(c).max())
    assert np.abs(y_c - y - c).max() <= tol


def one_head(lay, mode, seed):
    """One-head attention whose output projection is the identity, so its
    output rows are the attention rows themselves."""
    attn = att.MixedAttention(lay.dim, 1, nn.Draw(np.random.default_rng(seed)), mode=mode)
    attn.wo.w.data[:] = np.eye(lay.dim, dtype=np.float32)
    attn.wo.b.data[:] = 0.0
    return attn


def region_projections(attn, x, lay):
    """(q, k, v) of the template rows and of the search rows of x, each
    [rows, dim] in float64, projected the way the module projects them."""
    lt = lay.template_total
    out = []
    for rows, grid in ((x[:, :lt], (lay.templates, lay.t, lay.t)),
                       (x[:, lt:], (1, lay.s, lay.s))):
        streams = projections(attn, Tensor(rows), [grid])
        out.append(tuple(
            proj(s).numpy()[0].astype(np.float64)
            for proj, s in zip((attn.wq, lambda s: ad.linear(s, attn.wk),
                                lambda s: ad.linear(s, attn.wv)), streams)
        ))
    return out


def random_tokens(rng, lay):
    return rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32)


def test_mixed_attention_uniform_over_identical_values():
    v = np.array([[2.0, -1.0, 0.5], [2.0, -1.0, 0.5]], dtype=np.float32)
    out = ad.attention(Tensor(v[:1]), Tensor(v), Tensor(v), 1)
    (w,) = ad.attention_weights(Tensor(v[:1]), Tensor(v), 1, None)
    np.testing.assert_allclose(out.numpy(), v[:1], atol=1e-6)
    np.testing.assert_allclose(w, 0.5, atol=1e-7)


def test_mixed_attention_matches_brute_force():
    rng = np.random.default_rng(3)
    lay = small_layout()
    lt = lay.template_total
    x = random_tokens(rng, lay)
    for mode in (att.FULL_MIXED, att.ASYMMETRIC):
        attn = one_head(lay, mode, 3)
        y, _ = attn(Tensor(x), lay)
        (q_t, k_t, v_t), (q_s, k_s, v_s) = region_projections(attn, x, lay)
        km, vm = np.concatenate([k_t, k_s]), np.concatenate([v_t, v_s])
        if mode == att.FULL_MIXED:
            want_t = brute_force_attention(q_t, km, vm, lay.dim)
        else:
            want_t = brute_force_attention(q_t, k_t, v_t, lay.dim)
        want_s = brute_force_attention(q_s, km, vm, lay.dim)
        assert np.abs(y.numpy()[0, :lt] - want_t).max() < 1e-5, mode
        assert np.abs(y.numpy()[0, lt:] - want_s).max() < 1e-5, mode


def test_masked_template_keys_give_search_self_attention():
    rng = np.random.default_rng(4)
    d = 4
    q_t, k_t, v_t, q_s, k_s, v_s = rand_streams(rng, 3, 5, d)
    km = np.concatenate([k_t.numpy(), k_s.numpy()])
    vm = np.concatenate([v_t.numpy(), v_s.numpy()])
    masked = brute_force_attention(
        q_s.numpy().astype(np.float64), km, vm, d, masked_cols=range(3)
    )
    pure = ad.attention(q_s, k_s, v_s, 1)
    assert np.abs(pure.numpy() - masked).max() < 1e-6
    # the same rows as the second query group of a split call, whose first
    # group attends the template keys only
    q = ad.concat([q_t, q_s], axis=0)
    k, v = ad.concat([k_t, k_s], axis=0), ad.concat([v_t, v_s], axis=0)
    split = ad.attention(q, k, v, 1, split=(3, 3)).numpy()
    want_t = brute_force_attention(q_t.numpy().astype(np.float64), k_t.numpy(), v_t.numpy(), d)
    assert np.abs(split[:3] - want_t).max() < 1e-6
    assert np.abs(split[3:] - brute_force_attention(
        q_s.numpy().astype(np.float64), km, vm, d)).max() < 1e-6


def test_mixed_attention_shape_errors():
    q = Tensor(np.zeros((2, 4), dtype=np.float32))
    k3 = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        # key dims differ from the query dims
        ad.attention(q, k3, k3, 1)
    with pytest.raises(ShapeError):
        # key/value token counts disagree
        ad.attention(q, Tensor(np.zeros((3, 4), dtype=np.float32)), q, 1)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, nn.Draw(np.random.default_rng(0)), mode=att.ASYMMETRIC)
    x = Tensor(np.zeros((1, lay.search_total, lay.dim), dtype=np.float32))
    kt = lay.halved().template_total
    k = Tensor(np.zeros((1, kt, lay.dim), dtype=np.float32))
    v = Tensor(np.zeros((1, kt + 1, lay.dim), dtype=np.float32))
    with pytest.raises(ShapeError):
        # cached template keys and values of different lengths
        attn(x, lay, kv=(k, v))
    with pytest.raises(LayoutError):
        # the template rows are cached, so x must hold the search rows only
        attn(Tensor(np.zeros((1, lay.total, lay.dim), dtype=np.float32)), lay, kv=(k, k))


def test_asymmetric_search_branch_matches_mixed():
    rng = np.random.default_rng(5)
    lay = small_layout()
    x = Tensor(random_tokens(rng, lay))
    y_full, _ = att.MixedAttention(
        lay.dim, 2, nn.Draw(np.random.default_rng(5)), mode=att.FULL_MIXED
    )(x, lay)
    y_asym, _ = att.MixedAttention(
        lay.dim, 2, nn.Draw(np.random.default_rng(5)), mode=att.ASYMMETRIC
    )(x, lay)
    lt = lay.template_total
    np.testing.assert_array_equal(y_full.numpy()[:, lt:], y_asym.numpy()[:, lt:])


def test_asymmetric_single_template_token_passthrough():
    # a 2x2 template has one stride-2 key, so every template query returns
    # that key's value
    rng = np.random.default_rng(6)
    lay = att.TokenLayout(templates=1, t=2, s=4, dim=4)
    attn = one_head(lay, att.ASYMMETRIC, 6)
    y, (_, v) = attn(Tensor(random_tokens(rng, lay)), lay)
    assert lay.halved().template_total == 1
    assert v.shape == (1, lay.halved().total, lay.dim)
    want = np.broadcast_to(v.numpy()[0, 0], (lay.template_total, lay.dim))
    np.testing.assert_array_equal(y.numpy()[0, : lay.template_total], want)


def test_asymmetric_template_ignores_search():
    rng = np.random.default_rng(7)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, nn.Draw(rng), mode=att.ASYMMETRIC)
    x = random_tokens(rng, lay)
    x2 = x.copy()
    x2[:, lay.template_total :] = rng.normal(size=(lay.search_total, lay.dim))
    y1, (k1, v1) = attn(Tensor(x), lay)
    y2, (k2, v2) = attn(Tensor(x2), lay)
    lt, kt = lay.template_total, lay.halved().template_total
    np.testing.assert_array_equal(y1.numpy()[:, :lt], y2.numpy()[:, :lt])
    np.testing.assert_array_equal(k1.numpy()[:, :kt], k2.numpy()[:, :kt])
    np.testing.assert_array_equal(v1.numpy()[:, :kt], v2.numpy()[:, :kt])
    assert not np.array_equal(k1.numpy()[:, kt:], k2.numpy()[:, kt:])


def test_template_only_and_cached_passes_match_joint_pass():
    rng = np.random.default_rng(20)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, nn.Draw(rng), mode=att.ASYMMETRIC)
    x = Tensor(random_tokens(rng, lay))
    lt, kt = lay.template_total, lay.halved().template_total
    y, (k, v) = attn(x, lay)
    y_t, (k_t, v_t) = attn(x[:, :lt], lay, search=False)
    y_s, (k_c, v_c) = attn(x[:, lt:], lay, kv=(k_t, v_t))
    np.testing.assert_array_equal(y_t.numpy(), y.numpy()[:, :lt])
    np.testing.assert_array_equal(y_s.numpy(), y.numpy()[:, lt:])
    assert k_t.shape == v_t.shape == (1, kt, lay.dim)
    for got, want in ((k_t, k[:, :kt]), (v_t, v[:, :kt]), (k_c, k), (v_c, v)):
        np.testing.assert_array_equal(got.numpy(), want.numpy())


def former_joint_attention(attn, x, lay):
    """The former joint pass of MixedAttention, op for op: one depth-wise
    call per region and role with a concat, product-then-add projections, the
    head split, the template keys cut out and concatenated back, one softmax
    chain per query group, and the head merge.  Neither the keys' nor the
    values' projections, nor q's depth-wise one, have a bias."""
    lt, ls = lay.template_total, lay.search_total
    regions = [(0, lt, (lay.templates, lay.t, lay.t)), (lt, lt + ls, (1, lay.s, lay.s))]
    q, k, v = (ad.concat([conv(x[:, a:z], [grid]) for a, z, grid in regions], axis=1)
               for conv in convs(attn))

    def project(lin, t):
        if isinstance(lin, Tensor):
            return ad.linear(t, lin)
        return ad.add(ad.linear(t, lin.w), lin.b)

    def split(t):
        b, n, dim = t.shape
        return ad.transpose(ad.reshape(t, (b, n, attn.heads, dim // attn.heads)), (0, 2, 1, 3))

    def chain(q, k, v):
        logits = ad.mul(ad.linear(q, ad.transpose(k, (0, 1, 3, 2))), scale)
        return ad.linear(ad.softmax(logits), v)

    q, k, v = (split(project(lin, t)) for lin, t in ((attn.wq, q), (attn.wk, k), (attn.wv, v)))
    kt = lay.halved().template_total
    k_t, v_t = k[:, :, :kt], v[:, :, :kt]
    k, v = ad.concat([k_t, k[:, :, kt:]], axis=2), ad.concat([v_t, v[:, :, kt:]], axis=2)
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    keys = (k_t, v_t) if attn.mode == att.ASYMMETRIC else (k, v)
    y = ad.concat([chain(q[:, :, :lt], *keys), chain(q[:, :, lt:], k, v)], axis=2)
    b, h, n, d = y.shape
    return project(attn.wo, ad.reshape(ad.transpose(y, (0, 2, 1, 3)), (b, n, h * d)))


@pytest.mark.parametrize("mode", [att.ASYMMETRIC, att.FULL_MIXED])
@pytest.mark.parametrize("batch", [1, 4])
def test_joint_pass_matches_the_former_op_chain_bit_for_bit(mode, batch):
    rng = np.random.default_rng(23)
    lay = small_layout(dim=16)
    attn = att.MixedAttention(lay.dim, 2, nn.Draw(rng), mode=mode)
    x0 = rng.normal(size=(batch, lay.total, lay.dim)).astype(np.float32)
    params = attn.named_params()

    def output_and_grads(f):
        for p in params.values():
            p.grad = None
        x = Tensor(x0, requires_grad=True)
        with ad.Tape() as tape:
            y = f(x)
            upstream = np.linspace(-1.0, 1.0, y.size, dtype=np.float32).reshape(y.shape)
            tape.backward(ad.sum_(ad.mul(y, Tensor(upstream))))
        return [("out", y.numpy()), ("x", x.grad)] + [(n, p.grad) for n, p in params.items()]

    got = output_and_grads(lambda x: attn(x, lay)[0])
    want = output_and_grads(lambda x: former_joint_attention(attn, x, lay))
    for (name, g), (_, r) in zip(got, want):
        assert g.dtype == r.dtype and np.array_equal(g, r), name


def test_template_only_and_cached_passes_need_asymmetric_mode():
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, nn.Draw(np.random.default_rng(21)), mode=att.FULL_MIXED)
    x = Tensor(np.zeros((1, lay.template_total, lay.dim), dtype=np.float32))
    with pytest.raises(ConfigError):
        attn(x, lay, search=False)
    with pytest.raises(ConfigError):
        attn(x, lay, kv=(x, x))


def test_attention_permutation_of_keys():
    rng = np.random.default_rng(8)
    q, k, v = (Tensor(rng.normal(size=(n, 8)).astype(np.float32)) for n in (4, 6, 6))
    out1 = ad.attention(q, k, v, 2)
    p = rng.permutation(6)
    out2 = ad.attention(q, Tensor(k.numpy()[p]), Tensor(v.numpy()[p]), 2)
    assert np.abs(out1.numpy() - out2.numpy()).max() < 1e-6


def test_single_head_equals_batched_head_path():
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(size=(n, 8)).astype(np.float32) for n in (4, 6, 6))
    out1 = ad.attention(Tensor(q), Tensor(k), Tensor(v), 1)
    out2 = ad.attention(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), 1)
    np.testing.assert_array_equal(out1.numpy(), out2.numpy()[0])


def test_heads_attend_their_own_columns():
    rng = np.random.default_rng(22)
    q, k, v = (rng.normal(size=(2, n, 8)).astype(np.float32) for n in (4, 6, 6))
    both = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2).numpy()
    for h in (slice(0, 4), slice(4, 8)):
        one = ad.attention(Tensor(q[..., h]), Tensor(k[..., h]), Tensor(v[..., h]), 1)
        np.testing.assert_array_equal(both[..., h], one.numpy())


# ---------------------------------------------------------------------------
# MAM block


def test_block_preserves_length():
    rng = np.random.default_rng(10)
    for lay in [small_layout(), att.TokenLayout(1, 3, 5, 8)]:
        block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
        x = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
        y, _ = block(x, lay)
        assert y.shape == x.shape


def test_block_layout_mismatch_raises():
    rng = np.random.default_rng(11)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    with pytest.raises(LayoutError):
        block(Tensor(np.zeros((1, lay.total + 3, lay.dim), dtype=np.float32)), lay)


def test_block_zero_output_projection_leaves_mlp_path():
    rng = np.random.default_rng(12)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    block.attn.wo.w.data[:] = 0.0
    block.attn.wo.b.data[:] = 0.0
    x = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    got, _ = block(x, lay)
    want = ad.add(x, block.mlp(block.norm2(x)))
    np.testing.assert_array_equal(got.numpy(), want.numpy())


def test_block_asymmetric_template_rows_ignore_search():
    rng = np.random.default_rng(13)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.ASYMMETRIC)
    x = rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32)
    y1 = block(Tensor(x), lay)[0].numpy()
    x2 = x.copy()
    x2[:, lay.template_total :] = rng.normal(size=(lay.search_total, lay.dim))
    y2 = block(Tensor(x2), lay)[0].numpy()
    lt = lay.template_total
    np.testing.assert_array_equal(y1[:, :lt], y2[:, :lt])


def test_block_full_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    params = block.named_params()
    for p in params.values():
        p.data = p.data.astype(np.float64)
    x = Tensor(rng.normal(size=(1, lay.total, lay.dim)))

    def f():
        y, _ = block(x, lay)
        return ad.sum_(ad.mul(y, y))

    report = grad_check(f, params, h=1e-5)
    assert max(report.values()) < 1e-4, report


# ---------------------------------------------------------------------------
# attention weight dumps


def test_dump_slices_partition_each_query_row():
    rng = np.random.default_rng(16)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    tokens = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    maps = att.attention_weights_dump(block, tokens, lay)
    assert set(maps) == set(att.DUMP_NAMES)
    row_sum = (
        maps["search_to_template"].sum(axis=1)
        + maps["search_to_online_template"].sum(axis=1)
        + maps["search_to_search"].sum(axis=1)
    )
    np.testing.assert_allclose(row_sum, 1.0, atol=1e-6)
    for m in maps.values():
        assert np.all(m >= 0)


def test_dump_asymmetric_template_weights_cover_templates_only():
    rng = np.random.default_rng(17)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.ASYMMETRIC)
    tokens = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    q, k, _, split = block.attn.project(block.norm1(tokens), lay, None, True)
    wt, ws = ad.attention_weights(q, k, block.attn.heads, split)
    half = lay.halved()
    assert wt.shape[-1] == half.template_total
    assert ws.shape[-1] == half.total
    np.testing.assert_allclose(wt.sum(axis=-1), 1.0, atol=1e-6)


def test_dump_uniform_tokens_give_uniform_maps():
    rng = np.random.default_rng(18)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    tokens = Tensor(np.full((1, lay.total, lay.dim), 0.25, dtype=np.float32))
    maps = att.attention_weights_dump(block, tokens, lay)
    for name, m in maps.items():
        np.testing.assert_allclose(m, m[0, 0], atol=1e-6, err_msg=name)


def test_dump_online_maps_need_two_templates():
    rng = np.random.default_rng(19)
    lay = att.TokenLayout(1, 2, 4, 8)
    block = att.MAMBlock(lay.dim, heads=2, init=nn.Draw(rng), mode=att.FULL_MIXED)
    tokens = Tensor(np.zeros((1, lay.total, lay.dim), dtype=np.float32))
    maps = att.attention_weights_dump(block, tokens, lay)
    assert set(maps) == {"search_to_template", "search_to_search"}
