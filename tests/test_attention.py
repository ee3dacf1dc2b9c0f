import numpy as np
import pytest

from mixtrack import attention as att
from mixtrack import autodiff as ad
from mixtrack.autodiff import Tensor
from mixtrack.errors import ConfigError, LayoutError, ShapeError, UsageError


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
    return att.TokenLayout(templates=2, t_h=2, t_w=2, s_h=4, s_w=4, dim=dim)


def rand_streams(rng, lt, ls, d, kt=None, ks=None):
    kt = lt if kt is None else kt
    ks = ls if ks is None else ks
    mk = lambda n: Tensor(rng.normal(size=(n, d)).astype(np.float32))
    return mk(lt), mk(kt), mk(kt), mk(ls), mk(ks), mk(ks)


# ---------------------------------------------------------------------------
# TokenLayout


def test_layout_totals():
    lay = att.TokenLayout(templates=2, t_h=32, t_w=32, s_h=80, s_w=80, dim=64)
    assert lay.total == 8448
    assert lay.template_total == 2048
    assert lay.search_total == 6400


def test_layout_halved_extents():
    lay = small_layout()
    half = lay.halved()
    assert (half.t_h, half.t_w, half.s_h, half.s_w) == (1, 1, 2, 2)
    assert att.TokenLayout(1, 5, 5, 20, 20, 4).halved().s_h == 10


def test_layout_rejects_bad_extents():
    with pytest.raises(ConfigError):
        att.TokenLayout(0, 2, 2, 4, 4, 8)
    with pytest.raises(ConfigError):
        att.TokenLayout(1, 2, 2, 0, 4, 8)


# ---------------------------------------------------------------------------
# conv projections


def test_conv_projection_extents():
    rng = np.random.default_rng(1)
    attn = att.MixedAttention(dim=4, heads=1, rng=rng)
    m = Tensor(rng.normal(size=(4, 20, 20)).astype(np.float32))
    assert attn.dw_q(m).shape == (4, 20, 20)
    assert attn.dw_k(m).shape == (4, 10, 10)
    assert attn.dw_v(m).shape == (4, 10, 10)


def test_template_projections_independent():
    rng = np.random.default_rng(2)
    lay = small_layout()
    attn = att.MixedAttention(dim=lay.dim, heads=2, rng=rng)
    x = rng.normal(size=(1, lay.template_total, lay.dim)).astype(np.float32)
    x2 = x.copy()
    x2[:, lay.tokens_per_template :] = 0.0
    args = (lay.templates, lay.t_h, lay.t_w)
    q1, k1, v1 = attn._qkv(Tensor(x), *args)
    q2, k2, v2 = attn._qkv(Tensor(x2), *args)
    n = lay.tokens_per_template
    nh = lay.halved().tokens_per_template
    np.testing.assert_array_equal(q1.numpy()[:, :n], q2.numpy()[:, :n])
    np.testing.assert_array_equal(k1.numpy()[:, :nh], k2.numpy()[:, :nh])
    np.testing.assert_array_equal(v1.numpy()[:, :nh], v2.numpy()[:, :nh])


# ---------------------------------------------------------------------------
# attention cores


def one_head(lay, mode, seed):
    """One-head attention whose output projection is the identity, so its
    output rows are the attention rows themselves."""
    attn = att.MixedAttention(lay.dim, 1, np.random.default_rng(seed), mode=mode)
    attn.wo.w.data[:] = np.eye(lay.dim, dtype=np.float32)
    attn.wo.b.data[:] = 0.0
    return attn


def region_projections(attn, x, lay):
    """(q, k, v) of the template rows and of the search rows of x, each
    [rows, dim] in float64, projected the way the module projects them."""
    lt = lay.template_total
    out = []
    for rows, grid in ((x[:, :lt], (lay.templates, lay.t_h, lay.t_w)),
                       (x[:, lt:], (1, lay.s_h, lay.s_w))):
        streams = attn._qkv(Tensor(rows), *grid)
        out.append(tuple(
            proj(s).numpy()[0].astype(np.float64)
            for proj, s in zip((attn.wq, attn.wk, attn.wv), streams)
        ))
    return out


def random_tokens(rng, lay, extra=0):
    return rng.normal(size=(1, lay.total + extra, lay.dim)).astype(np.float32)


def test_mixed_attention_uniform_over_identical_values():
    v = np.array([[2.0, -1.0, 0.5], [2.0, -1.0, 0.5]], dtype=np.float32)
    out, w = att._attend(Tensor(v[:1]), Tensor(v), Tensor(v), 3, want_weights=True)
    np.testing.assert_allclose(out.numpy(), v[:1], atol=1e-6)
    np.testing.assert_allclose(w.numpy(), 0.5, atol=1e-7)


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
    pure, _ = att._attend(q_s, k_s, v_s, d)
    assert np.abs(pure.numpy() - masked).max() < 1e-6


def test_mixed_attention_shape_errors():
    q = Tensor(np.zeros((2, 4), dtype=np.float32))
    k3 = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        # key dims differ from the query dims
        att._attend(q, k3, k3, 4)
    with pytest.raises(ShapeError):
        # key/value token counts disagree
        att._attend(q, Tensor(np.zeros((3, 4), dtype=np.float32)), q, 4)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, np.random.default_rng(0), mode=att.ASYMMETRIC)
    x = Tensor(np.zeros((1, lay.search_total, lay.dim), dtype=np.float32))
    kt = lay.halved().template_total
    k = Tensor(np.zeros((1, 2, kt, lay.dim // 2), dtype=np.float32))
    v = Tensor(np.zeros((1, 2, kt + 1, lay.dim // 2), dtype=np.float32))
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
    y_full, _ = att.MixedAttention(lay.dim, 2, np.random.default_rng(5))(x, lay)
    y_asym, _ = att.MixedAttention(
        lay.dim, 2, np.random.default_rng(5), mode=att.ASYMMETRIC
    )(x, lay)
    lt = lay.template_total
    np.testing.assert_array_equal(y_full.numpy()[:, lt:], y_asym.numpy()[:, lt:])


def test_asymmetric_single_template_token_passthrough():
    # a 2x2 template has one stride-2 key, so every template query returns
    # that key's value
    rng = np.random.default_rng(6)
    lay = att.TokenLayout(templates=1, t_h=2, t_w=2, s_h=4, s_w=4, dim=4)
    attn = one_head(lay, att.ASYMMETRIC, 6)
    y, (_, v_t) = attn(Tensor(random_tokens(rng, lay)), lay)
    assert v_t.shape == (1, 1, 1, lay.dim)
    want = np.broadcast_to(v_t.numpy()[0, 0], (lay.template_total, lay.dim))
    np.testing.assert_array_equal(y.numpy()[0, : lay.template_total], want)


def test_asymmetric_template_ignores_search():
    rng = np.random.default_rng(7)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, rng, mode=att.ASYMMETRIC)
    x = random_tokens(rng, lay)
    x2 = x.copy()
    x2[:, lay.template_total :] = rng.normal(size=(lay.search_total, lay.dim))
    y1, (k1, v1) = attn(Tensor(x), lay)
    y2, (k2, v2) = attn(Tensor(x2), lay)
    lt = lay.template_total
    np.testing.assert_array_equal(y1.numpy()[:, :lt], y2.numpy()[:, :lt])
    np.testing.assert_array_equal(k1.numpy(), k2.numpy())
    np.testing.assert_array_equal(v1.numpy(), v2.numpy())


@pytest.mark.parametrize("extra", [0, 1])
def test_template_only_and_cached_passes_match_joint_pass(extra):
    rng = np.random.default_rng(20)
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, rng, mode=att.ASYMMETRIC)
    x = Tensor(random_tokens(rng, lay, extra))
    lt = lay.template_total
    y, (k, v) = attn(x, lay, extra)
    y_t, (k_t, v_t) = attn(x[:, :lt], lay, search=False)
    y_s, (k_c, v_c) = attn(x[:, lt:], lay, extra, kv=(k_t, v_t))
    np.testing.assert_array_equal(y_t.numpy(), y.numpy()[:, :lt])
    np.testing.assert_array_equal(y_s.numpy(), y.numpy()[:, lt:])
    for got, want in ((k_t, k), (v_t, v), (k_c, k), (v_c, v)):
        np.testing.assert_array_equal(got.numpy(), want.numpy())


def test_template_only_and_cached_passes_need_asymmetric_mode():
    lay = small_layout()
    attn = att.MixedAttention(lay.dim, 2, np.random.default_rng(21))
    x = Tensor(np.zeros((1, lay.template_total, lay.dim), dtype=np.float32))
    with pytest.raises(ConfigError):
        attn(x, lay, search=False)
    with pytest.raises(ConfigError):
        attn(x, lay, kv=(x, x))


def test_attention_permutation_of_keys():
    rng = np.random.default_rng(8)
    q, k, v = (Tensor(rng.normal(size=(n, 8)).astype(np.float32)) for n in (4, 6, 6))
    out1, _ = att._attend(q, k, v, 8)
    p = rng.permutation(6)
    out2, _ = att._attend(q, Tensor(k.numpy()[p]), Tensor(v.numpy()[p]), 8)
    assert np.abs(out1.numpy() - out2.numpy()).max() < 1e-6


def test_single_head_equals_batched_head_path():
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(size=(n, 8)).astype(np.float32) for n in (4, 6, 6))
    out1, _ = att._attend(Tensor(q), Tensor(k), Tensor(v), 8)
    out2, _ = att._attend(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), 8)
    np.testing.assert_array_equal(out1.numpy(), out2.numpy()[0])


# ---------------------------------------------------------------------------
# MAM block


def test_block_preserves_length():
    rng = np.random.default_rng(10)
    for lay, extra in [
        (small_layout(), 0),
        (att.TokenLayout(1, 3, 3, 5, 5, 8), 0),
        (small_layout(), 1),
    ]:
        block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
        x = Tensor(rng.normal(size=(1, lay.total + extra, lay.dim)).astype(np.float32))
        y, _ = block(x, lay, extra=extra)
        assert y.shape == x.shape


def test_block_layout_mismatch_raises():
    rng = np.random.default_rng(11)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    with pytest.raises(LayoutError):
        block(Tensor(np.zeros((1, lay.total + 3, lay.dim), dtype=np.float32)), lay)


def test_block_zero_output_projection_leaves_mlp_path():
    rng = np.random.default_rng(12)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    block.attn.wo.w.data[:] = 0.0
    block.attn.wo.b.data[:] = 0.0
    x = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    got, _ = block(x, lay)
    want = ad.add(x, block.mlp(block.norm2(x)))
    np.testing.assert_array_equal(got.numpy(), want.numpy())


def test_block_asymmetric_template_rows_ignore_search():
    rng = np.random.default_rng(13)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng, mode=att.ASYMMETRIC)
    x = rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32)
    y1 = block(Tensor(x), lay)[0].numpy()
    x2 = x.copy()
    x2[:, lay.template_total :] = rng.normal(size=(lay.search_total, lay.dim))
    y2 = block(Tensor(x2), lay)[0].numpy()
    lt = lay.template_total
    np.testing.assert_array_equal(y1[:, :lt], y2[:, :lt])


def test_block_extra_token_is_query_only():
    rng = np.random.default_rng(14)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    x = rng.normal(size=(1, lay.total + 1, lay.dim)).astype(np.float32)
    y1 = block(Tensor(x), lay, extra=1)[0].numpy()
    x2 = x.copy()
    x2[:, -1] = rng.normal(size=lay.dim)
    y2 = block(Tensor(x2), lay, extra=1)[0].numpy()
    np.testing.assert_array_equal(y1[:, :-1], y2[:, :-1])


def test_block_full_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=1, rng=rng)
    params = block.named_params()
    for p in params.values():
        p.data = p.data.astype(np.float64)
    x = Tensor(rng.normal(size=(1, lay.total, lay.dim)))

    def f():
        y, _ = block(x, lay)
        return ad.sum_(ad.mul(y, y))

    report = ad.grad_check(f, params, h=1e-5, tol=1e-4)
    assert report.ok(1e-4), report


# ---------------------------------------------------------------------------
# attention weight dumps


def test_dump_slices_partition_each_query_row():
    rng = np.random.default_rng(16)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    tokens = Tensor(rng.normal(size=(lay.total, lay.dim)).astype(np.float32))
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
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng, mode=att.ASYMMETRIC)
    tokens = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    wt, ws = block.attention_weights(tokens, lay)
    half = lay.halved()
    assert wt.shape[-1] == half.template_total
    assert ws.shape[-1] == half.total
    np.testing.assert_allclose(wt.numpy().sum(axis=-1), 1.0, atol=1e-6)


def test_dump_uniform_tokens_give_uniform_maps():
    rng = np.random.default_rng(18)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    tokens = Tensor(np.full((lay.total, lay.dim), 0.25, dtype=np.float32))
    maps = att.attention_weights_dump(block, tokens, lay)
    for name, m in maps.items():
        np.testing.assert_allclose(m, m[0, 0], atol=1e-6, err_msg=name)


def test_dump_online_maps_need_two_templates():
    rng = np.random.default_rng(19)
    lay = att.TokenLayout(1, 2, 2, 4, 4, 8)
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    tokens = Tensor(np.zeros((lay.total, lay.dim), dtype=np.float32))
    maps = att.attention_weights_dump(block, tokens, lay)
    assert set(maps) == {"search_to_template", "search_to_search"}
    with pytest.raises(UsageError):
        att.attention_weights_dump(block, tokens, lay, names=["search_to_online_template"])
    with pytest.raises(UsageError):
        att.attention_weights_dump(block, tokens, lay, names=["bogus"])
