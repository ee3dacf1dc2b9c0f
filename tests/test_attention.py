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
# TokenLayout and split/merge


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


def test_split_concat_round_trip():
    rng = np.random.default_rng(0)
    lay = small_layout()
    tokens = Tensor(rng.normal(size=(lay.total, lay.dim)).astype(np.float32))
    templates, search = att.split_and_reshape(tokens, lay)
    assert templates.shape == (2, 8, 2, 2)
    assert search.shape == (8, 4, 4)
    back = att.flatten_and_concat(templates, search, lay)
    np.testing.assert_array_equal(back.numpy(), tokens.numpy())


def test_split_paper_scale_lengths():
    lay = att.TokenLayout(templates=2, t_h=32, t_w=32, s_h=80, s_w=80, dim=4)
    tokens = Tensor(np.zeros((8448, 4), dtype=np.float32))
    templates, search = att.split_and_reshape(tokens, lay)
    assert templates.shape == (2, 4, 32, 32)
    assert search.shape == (4, 80, 80)


def test_split_degenerate_single_pixel():
    lay = att.TokenLayout(templates=1, t_h=1, t_w=1, s_h=1, s_w=1, dim=3)
    tokens = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32))
    templates, search = att.split_and_reshape(tokens, lay)
    assert templates.shape == (1, 3, 1, 1)
    assert search.shape == (3, 1, 1)
    np.testing.assert_array_equal(templates.numpy().ravel(), [1, 2, 3])
    np.testing.assert_array_equal(search.numpy().ravel(), [4, 5, 6])


def test_split_length_mismatch_raises():
    lay = small_layout()
    with pytest.raises(LayoutError):
        att.split_and_reshape(Tensor(np.zeros((lay.total + 1, lay.dim))), lay)
    with pytest.raises(LayoutError):
        att.flatten_and_concat(
            Tensor(np.zeros((3, lay.dim, 2, 2))), Tensor(np.zeros((lay.dim, 4, 4))), lay
        )


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
    x = Tensor(rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32))
    q1, k1, v1 = attn._projected_streams(x, lay, 0)
    x2 = x.numpy().copy()
    x2[:, lay.tokens_per_template : lay.template_total] = 0.0
    q2, k2, v2 = attn._projected_streams(Tensor(x2), lay, 0)
    n = lay.tokens_per_template
    nh = lay.halved().tokens_per_template
    np.testing.assert_array_equal(q1.numpy()[:, :, :n], q2.numpy()[:, :, :n])
    np.testing.assert_array_equal(k1.numpy()[:, :, :nh], k2.numpy()[:, :, :nh])
    np.testing.assert_array_equal(v1.numpy()[:, :, :nh], v2.numpy()[:, :, :nh])


# ---------------------------------------------------------------------------
# attention cores


def test_mixed_attention_uniform_over_identical_values():
    v = np.array([[2.0, -1.0, 0.5]], dtype=np.float32)
    t = Tensor(v)
    at, as_ = att.mixed_attention(t, t, t, t, t, t)
    np.testing.assert_allclose(at.numpy(), v, atol=1e-6)
    np.testing.assert_allclose(as_.numpy(), v, atol=1e-6)


def test_mixed_attention_matches_brute_force():
    rng = np.random.default_rng(3)
    d = 4
    q_t, k_t, v_t, q_s, k_s, v_s = rand_streams(rng, 3, 5, d)
    at, as_ = att.mixed_attention(q_t, k_t, v_t, q_s, k_s, v_s)
    km = np.concatenate([k_t.numpy(), k_s.numpy()])
    vm = np.concatenate([v_t.numpy(), v_s.numpy()])
    want_t = brute_force_attention(q_t.numpy().astype(np.float64), km, vm, d)
    want_s = brute_force_attention(q_s.numpy().astype(np.float64), km, vm, d)
    assert np.abs(at.numpy() - want_t).max() < 1e-6
    assert np.abs(as_.numpy() - want_s).max() < 1e-6


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
        att.mixed_attention(q, k3, k3, q, q, q)
    with pytest.raises(ShapeError):
        # template k/v token counts disagree
        att.mixed_attention(q, Tensor(np.zeros((3, 4))), q, q, q, q)


def test_asymmetric_search_branch_matches_mixed():
    rng = np.random.default_rng(5)
    streams = rand_streams(rng, 4, 6, 8)
    _, as_full = att.mixed_attention(*streams)
    _, as_asym = att.asymmetric_attention(*streams)
    np.testing.assert_array_equal(as_full.numpy(), as_asym.numpy())


def test_asymmetric_single_template_token_passthrough():
    rng = np.random.default_rng(6)
    q_t = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    k_t = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    v_t = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    q_s, k_s, v_s = (Tensor(rng.normal(size=(3, 4)).astype(np.float32)) for _ in range(3))
    at, _ = att.asymmetric_attention(q_t, k_t, v_t, q_s, k_s, v_s)
    np.testing.assert_array_equal(at.numpy(), v_t.numpy())


def test_asymmetric_template_ignores_search():
    rng = np.random.default_rng(7)
    q_t, k_t, v_t, q_s, k_s, v_s = rand_streams(rng, 4, 6, 8)
    at1, _ = att.asymmetric_attention(q_t, k_t, v_t, q_s, k_s, v_s)
    noise = [Tensor(rng.normal(size=s.shape).astype(np.float32)) for s in (q_s, k_s, v_s)]
    at2, _ = att.asymmetric_attention(q_t, k_t, v_t, *noise)
    np.testing.assert_array_equal(at1.numpy(), at2.numpy())


def test_attention_permutation_of_keys():
    rng = np.random.default_rng(8)
    q_t, k_t, v_t, q_s, k_s, v_s = rand_streams(rng, 4, 6, 8)
    at1, as1 = att.mixed_attention(q_t, k_t, v_t, q_s, k_s, v_s)
    pt = rng.permutation(4)
    ps = rng.permutation(6)
    at2, as2 = att.mixed_attention(
        q_t, Tensor(k_t.numpy()[pt]), Tensor(v_t.numpy()[pt]),
        q_s, Tensor(k_s.numpy()[ps]), Tensor(v_s.numpy()[ps]),
    )
    assert np.abs(at1.numpy() - at2.numpy()).max() < 1e-6
    assert np.abs(as1.numpy() - as2.numpy()).max() < 1e-6


def test_single_head_equals_batched_head_path():
    rng = np.random.default_rng(9)
    streams = rand_streams(rng, 4, 6, 8)
    at1, as1 = att.mixed_attention(*streams)
    batched = [Tensor(s.numpy()[None]) for s in streams]
    at2, as2 = att.mixed_attention(*batched)
    np.testing.assert_array_equal(at1.numpy(), at2.numpy()[0])
    np.testing.assert_array_equal(as1.numpy(), as2.numpy()[0])


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
        y = block(x, lay, extra=extra)
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
    got = block(x, lay)
    want = ad.add(x, block.mlp(block.norm2(x)))
    np.testing.assert_array_equal(got.numpy(), want.numpy())


def test_block_asymmetric_template_rows_ignore_search():
    rng = np.random.default_rng(13)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng, mode=att.ASYMMETRIC)
    x = rng.normal(size=(1, lay.total, lay.dim)).astype(np.float32)
    y1 = block(Tensor(x), lay).numpy()
    x2 = x.copy()
    x2[:, lay.template_total :] = rng.normal(size=(lay.search_total, lay.dim))
    y2 = block(Tensor(x2), lay).numpy()
    lt = lay.template_total
    np.testing.assert_array_equal(y1[:, :lt], y2[:, :lt])


def test_block_extra_token_is_query_only():
    rng = np.random.default_rng(14)
    lay = small_layout()
    block = att.MAMBlock(lay.dim, heads=2, mlp_ratio=2, rng=rng)
    x = rng.normal(size=(1, lay.total + 1, lay.dim)).astype(np.float32)
    y1 = block(Tensor(x), lay, extra=1).numpy()
    x2 = x.copy()
    x2[:, -1] = rng.normal(size=lay.dim)
    y2 = block(Tensor(x2), lay, extra=1).numpy()
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
        y = block(x, lay)
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
