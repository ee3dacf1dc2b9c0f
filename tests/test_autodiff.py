import ast
import inspect
import itertools
import pathlib
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack.autodiff import Tape, Tensor
from mixtrack.errors import ConfigError, ShapeError, UsageError

from gradcheck import GradCheckError, grad_check


# ---------------------------------------------------------------------------
# independent oracles


def conv2d_loops(x, w, b, stride, pad):
    """Direct nested-loop convolution used as the oracle for the fast path."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((bsz, cout, oh, ow), dtype=x.dtype)
    for bi in range(bsz):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    y[bi, co, i, j] = (patch * w[co]).sum() + b[co]
    return y


def depthwise_loops(x, k, stride, pad):
    """Channels-last oracle: x [B, H, W, C], k [C, kh, kw]."""
    bsz, h, wd, c = x.shape
    _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((bsz, oh, ow, c), dtype=x.dtype)
    for bi in range(bsz):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, i * stride : i * stride + kh, j * stride : j * stride + kw, ci]
                    y[bi, i, j, ci] = (patch * k[ci]).sum()
    return y


# The former ``autodiff._patches``, built on np.pad and sliding_window_view,
# kept verbatim: the conv ops must match it bit for bit.
def reference_patches(x, kh, kw, stride, pad):
    """Strided view of all kernel windows: [B, C, H', W', kh, kw]."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride], x.shape


def _reference_tap_views(buf, kh, kw, stride, out_h, out_w):
    """Per kernel tap, in row-major order, the strided view of the
    channels-last ``buf`` [B, H, W, C] that the tap reads for every output
    position: [B, out_h, out_w, C]."""
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    return [
        buf[:, i : i + span_h : stride, j : j + span_w : stride]
        for i in range(kh)
        for j in range(kw)
    ]


# The former ``autodiff.depthwise_conv2d`` and its ``_tap_views``, a per-tap
# loop on every map size, kept verbatim (bar the ``ad.`` prefixes): both
# forward paths of the op must match it bit for bit.
def reference_depthwise(x, w, stride, pad):
    x, w = ad.as_tensor(x), ad.as_tensor(w)
    if x.ndim != 4:
        raise ShapeError(
            f"depthwise_conv2d needs [B, H, W, C] maps, got shape {x.shape}"
        )
    bsz, h, wd, c = x.shape
    c_w, kh, kw = w.shape
    if c != c_w:
        raise ShapeError(
            f"depthwise_conv2d channel mismatch: input has {c}, kernel has {c_w}"
        )
    out_h = ad._conv_out_extent(h, kh, stride, pad)
    out_w = ad._conv_out_extent(wd, kw, stride, pad)
    if pad:
        buf = np.zeros((bsz, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype)
        buf[:, pad:-pad, pad:-pad] = x.data
    else:
        buf = x.data
    taps = np.ascontiguousarray(w.data.reshape(c, kh * kw).T)
    views = _reference_tap_views(buf, kh, kw, stride, out_h, out_w)
    y = views[0] * taps[0]
    tmp = np.empty_like(y)
    for view, tap in zip(views[1:], taps[1:]):
        y += np.multiply(view, tap, out=tmp)
    out = Tensor(y)

    def vjp(g):
        # sums over every position as one row-vector product, which is far
        # cheaper than a reduction down the long axis of a [N, C] array
        ones = np.ones((1, bsz * out_h * out_w), dtype=g.dtype)
        prod = np.empty(g.shape, dtype=g.dtype)
        gx = gw = None
        if w.requires_grad:
            gw = np.empty((kh * kw, c), dtype=g.dtype)
            for t, view in enumerate(views):
                np.multiply(g, view, out=prod)
                np.matmul(ones, prod.reshape(-1, c), out=gw[t : t + 1])
            gw = np.ascontiguousarray(gw.T).reshape(w.shape)
        if x.requires_grad:
            gbuf = np.zeros(buf.shape, dtype=g.dtype)
            gviews = _reference_tap_views(gbuf, kh, kw, stride, out_h, out_w)
            for gview, tap in zip(gviews, taps):
                gview += np.multiply(g, tap, out=prod)
            gx = np.ascontiguousarray(gbuf[:, pad:-pad, pad:-pad]) if pad else gbuf
        return gx, gw

    return ad._record("depthwise_conv2d", out, (x, w), vjp)


# ---------------------------------------------------------------------------
# former ops, now compositions


# The former ``autodiff.matmul``, ``clamp`` and ``neg``, kept verbatim (bar the
# ``ad.`` prefixes): the bias-free ``linear``, ``minimum(maximum(x, lo), hi)``
# and ``mul(x, -1.0)`` that replace them must match them bit for bit.
def former_matmul(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner extents differ: {a.shape} vs {b.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.requires_grad:
            gb = ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
        return ga, gb

    return ad._record("matmul", out, (a, b), vjp)


def former_clamp(x, lo, hi):
    x = ad.as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    return ad._record(
        "clamp", out, (x,), lambda g: (g * ((x.data >= lo) & (x.data <= hi)),)
    )


def former_neg(x):
    x = ad.as_tensor(x)
    out = Tensor(-x.data)
    return ad._record("neg", out, (x,), lambda g: (-g,))


def _assert_same_bytes(got, want, what):
    """Equal dtype, shape and bytes: NaN payloads and signed zeros count."""
    for i, (g, r) in enumerate(zip(got, want)):
        name = "out" if i == 0 else f"grad {i - 1}"
        assert g.dtype == r.dtype and g.shape == r.shape, f"{what} {name}"
        assert g.tobytes() == r.tobytes(), f"{what} {name} differs"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_then_min_matches_former_clamp_bit_for_bit(dtype):
    """As in ``score_loss``: x exactly at either bound keeps its gradient,
    NaN passes forward and takes none, and so does x outside the bounds."""
    lo, hi = 1e-7, 1.0 - 1e-7
    at_lo, at_hi = np.asarray([lo, hi], dtype=dtype)
    x = np.asarray([at_lo, at_hi, 0.5, -0.0, 0.0, -3.0, 1.0, 2.0, np.nan, -np.inf,
                    np.inf, np.nextafter(at_lo, dtype(0)), np.nextafter(at_hi, dtype(1))],
                   dtype=dtype)
    got = _output_and_grads(lambda t: ad.minimum(ad.maximum(t, lo), hi), (x,))
    want = _output_and_grads(lambda t: former_clamp(t, lo, hi), (x,))
    _assert_same_bytes(got, want, "clamp")
    assert np.all(got[1][:3] != 0) and np.all(got[1][3:] == 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mul_by_minus_one_matches_former_neg_bit_for_bit(dtype):
    x = np.asarray([0.0, -0.0, 1.5, -2.25, 3e-39, -np.inf, 7.0], dtype=dtype)
    got = _output_and_grads(lambda t: ad.mul(t, -1.0), (x,))
    want = _output_and_grads(former_neg, (x,))
    _assert_same_bytes(got, want, "neg")
    assert np.signbit(got[0][:2]).tolist() == [True, False]
    # a scalar, as the mean in score_loss, seeded by backward itself
    grads = []
    for op in (lambda t: ad.mul(t, -1.0), former_neg):
        leaf = Tensor(np.asarray(2.5, dtype=dtype), requires_grad=True)
        with Tape() as tape:
            tape.backward(op(ad.mean_(leaf)))
        grads.append(leaf.grad)
    assert grads[0].dtype == dtype and grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("op, cmp", [(ad.maximum, np.greater_equal),
                                     (ad.minimum, np.less_equal)])
def test_max_and_min_send_a_tie_to_a_and_a_nan_to_b(op, cmp):
    a = np.asarray([[1.0, 2.0, np.nan, 3.0], [-0.0, 5.0, 0.5, np.nan]])
    b = np.asarray([[1.0, 0.0, 4.0, 9.0], [0.0, 5.0, np.nan, np.nan]])
    y, ga, gb = _output_and_grads(op, (a, b))
    upstream = np.linspace(-1.0, 1.0, y.size).reshape(y.shape)
    to_a = cmp(a, b)
    assert to_a[0, 0] and to_a[1, 0] and to_a[1, 1] and not to_a[0, 2] and not to_a[1, 3]
    np.testing.assert_array_equal(ga, np.where(to_a, upstream, 0.0))
    np.testing.assert_array_equal(gb, np.where(to_a, 0.0, upstream))
    # a broadcast b sums the rows that chose it
    ga, gb = _output_and_grads(op, (a, b[:1, :1]))[1:]
    to_a = cmp(a, b[:1, :1])
    np.testing.assert_array_equal(ga, np.where(to_a, upstream, 0.0))
    np.testing.assert_allclose(gb, [[np.where(to_a, 0.0, upstream).sum()]], rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("a_shape, b_shape", [
    ((16, 30), (30, 8)),  # roi_tokens: sample weights by flattened features
    ((2, 3, 5, 4), (2, 3, 4, 6)),
    ((2, 1, 5, 4), (3, 4, 6)),
])
def test_bias_free_linear_matches_former_matmul_bit_for_bit(a_shape, b_shape, dtype):
    rng = np.random.default_rng(35)
    a, b = (rng.normal(size=shape).astype(dtype) for shape in (a_shape, b_shape))
    got = _output_and_grads(ad.linear, (a, b))
    want = _output_and_grads(former_matmul, (a, b))
    _assert_same_bytes(got, want, f"linear {a_shape} @ {b_shape}")


# ---------------------------------------------------------------------------
# linear without a bias: the matrix product


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)).astype(np.float32)
    out = ad.linear(Tensor(np.eye(3, dtype=np.float32)), Tensor(a))
    np.testing.assert_array_equal(out.numpy(), a)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.linear(a, b).numpy(), [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError) as exc:
        ad.linear(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.zeros(3)), b)


def test_matmul_grad_matches_central_difference():
    rng = np.random.default_rng(1)
    a = Tensor(np.asarray(rng.normal(size=(3, 4)), np.float64), requires_grad=True)
    b = Tensor(np.asarray(rng.normal(size=(4, 2)), np.float64), requires_grad=True)

    def f():
        return ad.sum_(ad.linear(a, b))

    report = grad_check(f, {"a": a, "b": b}, h=1e-5)
    assert max(report.values()) < 1e-6, report
    # grad of sum(A.B) wrt A in closed form is ones @ B^T
    with Tape() as tape:
        tape.backward(f())
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.numpy().T, rtol=1e-12)


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(2)
    a = Tensor(np.asarray(rng.normal(size=(5, 3, 4)), np.float64), requires_grad=True)
    b = Tensor(np.asarray(rng.normal(size=(4, 2)), np.float64), requires_grad=True)

    def f():
        y = ad.linear(a, b)
        return ad.sum_(ad.mul(y, y))

    report = grad_check(f, {"a": a, "b": b}, h=1e-5)
    assert max(report.values()) < 1e-6, report


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_allclose(
        ad.softmax(Tensor([0.0, 0.0])).numpy(), [0.5, 0.5], atol=1e-7
    )


def test_softmax_huge_logits_no_overflow():
    y = ad.softmax(Tensor([1000.0, 1000.0, 1000.0])).numpy()
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_ln2_case():
    y = ad.softmax(Tensor(np.asarray([np.log(2.0), 0.0], np.float64))).numpy()
    np.testing.assert_allclose(y, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(scale=50.0, size=(4, 7, 9)).astype(np.float32))
    y = ad.softmax(x).numpy()
    assert y.dtype == np.float32
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# depthwise convolution


def maps_depthwise(x, k, stride, pad):
    """``ad.depthwise_conv2d`` of channels-last maps x [B, H, W, C], as one
    grid of token rows per batch entry, reshaped back to [B, H', W', C]."""
    bsz, h, wd, c = x.shape
    y = ad.depthwise_conv2d(Tensor(x.reshape(bsz, h * wd, c)), [(1, h, wd)], Tensor(k),
                            stride=stride, pad=pad)
    out_h = ad._conv_out_extent(h, k.shape[1], stride, pad)
    return y.numpy().reshape(bsz, out_h, -1, c)


def test_depthwise_identity_kernel():
    rng = np.random.default_rng(4)
    # two 2x2 templates and a 5x5 search map, then a row no grid covers
    x = rng.normal(size=(2, 2 * 4 + 25 + 1, 3)).astype(np.float32)
    k = np.ones((3, 1, 1), dtype=np.float32)
    y = ad.depthwise_conv2d(Tensor(x), [(2, 2, 2), (1, 5, 5)], Tensor(k),
                            stride=1, pad=0)
    np.testing.assert_array_equal(y.numpy(), x[:, :-1])


def test_depthwise_all_ones_interior():
    c = 1.5
    x = np.full((1, 6, 6, 2), c, dtype=np.float32)
    k = np.ones((2, 3, 3), dtype=np.float32)
    y = maps_depthwise(x, k, stride=1, pad=1)
    assert y.shape == (1, 6, 6, 2)
    np.testing.assert_allclose(y[:, 1:-1, 1:-1], 9 * c, rtol=1e-6)


def test_depthwise_stride2_extents():
    x = Tensor(np.zeros((1, 2 * 25 + 256, 1), dtype=np.float32))
    k = Tensor(np.zeros((1, 3, 3), dtype=np.float32))
    assert ad.depthwise_conv2d(x, [(1, 16, 16)], k, stride=2, pad=1).shape == (1, 64, 1)
    y = ad.depthwise_conv2d(x, [(2, 5, 5), (1, 16, 16)], k, stride=2, pad=1)
    assert y.shape == (1, 2 * 9 + 64, 1)


def test_depthwise_bad_extent_raises():
    x = Tensor(np.zeros((1, 4, 1), dtype=np.float32))
    k = Tensor(np.zeros((1, 5, 5), dtype=np.float32))
    with pytest.raises(ConfigError):
        ad.depthwise_conv2d(x, [(1, 2, 2)], k, stride=1, pad=0)


def test_depthwise_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.depthwise_conv2d(Tensor(np.zeros((1, 16, 3))), [(1, 4, 4)], Tensor(np.zeros((2, 3, 3))),
                            stride=1, pad=0)
    with pytest.raises(ShapeError):
        # channels-last maps are not token rows
        ad.depthwise_conv2d(Tensor(np.zeros((1, 4, 4, 3))), [(1, 4, 4)], Tensor(np.zeros((3, 3, 3))),
                            stride=1, pad=0)


def test_depthwise_grids_must_fit_the_rows():
    k = Tensor(np.zeros((3, 3, 3)))
    with pytest.raises(ShapeError):
        # the grids need more rows than the tokens have
        ad.depthwise_conv2d(Tensor(np.zeros((1, 16, 3))), [(1, 4, 4), (1, 3, 3)], k,
                            stride=1, pad=0)
    with pytest.raises(ShapeError):
        # no grid at all
        ad.depthwise_conv2d(Tensor(np.zeros((1, 16, 3))), [], k, stride=1, pad=0)


def test_depthwise_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 9, 7, 4)).astype(np.float64)
    k = rng.normal(size=(4, 3, 3)).astype(np.float64)
    for stride, pad in [(1, 1), (2, 1), (1, 0), (3, 2)]:
        got = maps_depthwise(x, k, stride=stride, pad=pad)
        want = depthwise_loops(x, k, stride, pad)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_depthwise_regions_match_loop_oracle():
    # three 5x4 maps per batch entry, then one 9x7 map: each region is
    # convolved on its own, so no tap reads across a region's border
    rng = np.random.default_rng(33)
    t = rng.normal(size=(2, 3, 5, 4, 4))
    s = rng.normal(size=(2, 9, 7, 4))
    k = rng.normal(size=(4, 3, 3))
    x = np.concatenate([t.reshape(2, 60, 4), s.reshape(2, 63, 4)], axis=1)
    for stride, pad in [(1, 1), (2, 1)]:
        got = ad.depthwise_conv2d(Tensor(x), [(3, 5, 4), (1, 9, 7)], Tensor(k),
                                  stride=stride, pad=pad).numpy()
        want_t = depthwise_loops(t.reshape(6, 5, 4, 4), k, stride, pad)
        want_s = depthwise_loops(s, k, stride, pad)
        want = np.concatenate([want_t.reshape(2, -1, 4), want_s.reshape(2, -1, 4)], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_depthwise_float32_is_within_summation_error_of_the_oracle():
    # the taps are summed one by one in float32: each product and each
    # addition rounds once, relative to the sum of magnitudes
    rng = np.random.default_rng(29)
    x, k = (rng.normal(size=shape).astype(np.float32) for shape in ((2, 9, 7, 4), (4, 3, 3)))
    for stride, pad in [(1, 1), (2, 1), (1, 0)]:
        got = maps_depthwise(x, k, stride=stride, pad=pad)
        assert got.dtype == np.float32
        want = depthwise_loops(*(a.astype(np.float64) for a in (x, k)), stride, pad)
        scale = depthwise_loops(*(np.abs(a).astype(np.float64) for a in (x, k)), stride, pad)
        assert np.all(np.abs(got - want) <= 10 * np.finfo(np.float32).eps * scale)


# ---------------------------------------------------------------------------
# layer_norm / gelu / linear


def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((2, 5), 3.7, dtype=np.float32))
    gain = Tensor(np.ones(5, dtype=np.float32))
    bias = Tensor(np.zeros(5, dtype=np.float32))
    np.testing.assert_allclose(
        ad.layer_norm(x, gain, bias).numpy(), 0.0, atol=1e-5
    )


def test_layer_norm_of_a_transposed_view_is_c_contiguous():
    # the patch-embedding tokens are a channel-major view; the norm returns
    # the same values in C order, so later reductions over its rows sum in
    # the order they would over rows copied out of a concat
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 16, 4, 8)).astype(np.float32)
    x = x.transpose(0, 2, 3, 1).reshape(2, 32, 16)
    assert not x.flags.c_contiguous
    gain = rng.standard_normal(16).astype(np.float32)
    bias = rng.standard_normal(16).astype(np.float32)
    got = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).numpy()
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    want = xc * inv * gain + bias
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _layer_norm_with_ndarray_mean(x, gain, bias, g, eps=1e-5):
    """The former layer_norm forward and input gradient, built on ndarray.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    gxh = g * gain
    m1 = gxh.mean(axis=-1, keepdims=True)
    m2 = (gxh * xhat).mean(axis=-1, keepdims=True)
    return xhat * gain + bias, inv * (gxh - m1 - xhat * m2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_matches_ndarray_mean_bit_for_bit(dtype):
    rng = np.random.default_rng(27)
    cases = [
        rng.standard_normal((5, n)) * scale + scale
        for n in (1, 2, 3, 7, 16, 64, 100, 333, 1000)
        for scale in (1e-5, 1.0, 1e5)
    ]
    cases.append(rng.standard_normal((3, 40, 24)).transpose(0, 2, 1))
    for x in cases:
        x = x.astype(dtype)
        n = x.shape[-1]
        gain = rng.standard_normal(n).astype(dtype)
        bias = rng.standard_normal(n).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        leaf = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = ad.layer_norm(leaf, Tensor(gain), Tensor(bias))
            tape.backward(ad.sum_(ad.mul(y, Tensor(g))))
        want_y, want_gx = _layer_norm_with_ndarray_mean(x, gain, bias, g)
        assert y.numpy().tobytes() == np.ascontiguousarray(want_y).tobytes(), x.shape
        assert np.array_equal(leaf.grad, want_gx), x.shape


def test_gelu_at_zero():
    x = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        y = ad.gelu(x)
        tape.backward(ad.sum_(y))
    assert y.numpy()[0] == 0.0
    np.testing.assert_allclose(x.grad, 0.5, atol=1e-12)
    # central difference at the same point
    h = 1e-6
    fd = (ad.gelu(Tensor(np.asarray([h], np.float64))).numpy()[0]
          - ad.gelu(Tensor(np.asarray([-h], np.float64))).numpy()[0]) / (2 * h)
    np.testing.assert_allclose(fd, 0.5, atol=1e-9)


def test_linear_identity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3)).astype(np.float32)
    w = Tensor(np.eye(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float32))
    np.testing.assert_array_equal(ad.linear(Tensor(x), w, b).numpy(), x)


def test_linear_shape_errors():
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2))))


def _output_and_grads(op, leaves):
    """Forward output and every leaf's gradient under a fixed upstream."""
    leaves = [Tensor(a, requires_grad=True) for a in leaves]
    with Tape() as tape:
        y = op(*leaves)
        upstream = np.linspace(-1.0, 1.0, y.size).reshape(y.shape)
        tape.backward(ad.sum_(ad.mul(y, Tensor(np.asarray(upstream, y.dtype)))))
    return [y.numpy()] + [t.grad for t in leaves]


def _assert_same_bits(got, want, what):
    for i, (g, r) in enumerate(zip(got, want)):
        name = "out" if i == 0 else f"grad {i - 1}"
        assert g.dtype == r.dtype and g.shape == r.shape, f"{what} {name}"
        assert np.array_equal(g, r), f"{what} {name} differs"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(5, 8), (1, 40, 8), (4, 37, 8)])
def test_linear_matches_matmul_then_add_bit_for_bit(x_shape, dtype):
    rng = np.random.default_rng(34)
    x, w, b = (rng.normal(size=shape).astype(dtype) for shape in (x_shape, (8, 6), (6,)))
    got = _output_and_grads(ad.linear, (x, w, b))
    want = _output_and_grads(lambda x, w, b: ad.add(former_matmul(x, w), b), (x, w, b))
    _assert_same_bits(got, want, f"linear {x_shape}")
    got = _output_and_grads(ad.linear, (x, w))
    want = _output_and_grads(former_matmul, (x, w))
    _assert_same_bits(got, want, f"linear {x_shape} without bias")


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 1, 1, 1), (2, 1, 3), (3, 1), (4, 2)])
def test_edge_pad_equals_numpy_edge_mode(shape):
    x = np.random.default_rng(30).normal(size=shape).astype(np.float32)
    y = ad.edge_pad(Tensor(x)).numpy()
    want = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((1, 1), (1, 1)), mode="edge")
    assert y.dtype == want.dtype and np.array_equal(y, want)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 1), (2, 2, 3)])
def test_edge_pad_gradient_on_thin_maps(shape):
    rng = np.random.default_rng(31)
    x = Tensor(np.asarray(rng.uniform(-1.0, 1.0, size=shape), np.float64), requires_grad=True)
    w = Tensor(np.asarray(rng.uniform(-1.0, 1.0, size=shape[:-2] + (shape[-2] + 2, shape[-1] + 2)),
                          np.float64))
    report = grad_check(lambda: ad.sum_(ad.mul(ad.edge_pad(x), w)), {"x": x})
    assert max(report.values()) < 1e-6, report


def test_edge_pad_rejects_vectors():
    with pytest.raises(ShapeError):
        ad.edge_pad(Tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_square_gives_2x():
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.numpy(), rtol=1e-6)


def test_backward_reuse_sums_contributions():
    # x feeds two branches; hand derivative is 2x + 3
    x = Tensor(np.array([0.5, -1.5], dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.sum_(ad.mul(x, x)), ad.sum_(ad.mul(x, 3.0)))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.numpy() + 3.0, rtol=1e-12)


def test_backward_nonscalar_loss_raises():
    x = Tensor(np.zeros(3), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(UsageError):
            tape.backward(y)


def test_frozen_tensor_receives_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.ones(3), requires_grad=False)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, w)))
    assert x.grad is not None
    assert w.grad is None


def test_vjps_skip_inputs_that_need_no_gradient():
    rng = np.random.default_rng(28)
    image = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    a = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    const = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
    positive = Tensor(rng.uniform(1.0, 2.0, size=(2, 3)).astype(np.float32))
    with Tape() as tape:
        y = ad.conv2d(image, w, stride=2, pad=1)
        ad.add(a, 1.0), ad.sub(2.0, a), ad.mul(a, 0.5), ad.linear(a, const)
        ad.div(a, positive), ad.div(positive, a)
        ad.maximum(a, 1e-12), ad.minimum(0.0, a)
        ad.attention(a, const, const, 1), ad.attention(const[:2], const, ad.transpose(a, (1, 0)), 1)
    grads = [vjp(np.ones_like(out.data)) for _, out, _, vjp in tape._entries]
    assert grads[0][0] is None and grads[0][1].shape == w.shape
    assert grads[1][1] is None and grads[2][0] is None and grads[3][1] is None
    assert grads[4][1] is None and grads[4][0].shape == a.shape
    assert grads[5][1] is None and grads[5][0].shape == a.shape
    assert grads[6][0] is None and grads[6][1].shape == a.shape
    assert grads[7][1] is None and grads[7][0].shape == a.shape
    assert grads[8][0] is None and grads[8][1].shape == a.shape
    assert grads[9][1:] == (None, None) and grads[9][0].shape == a.shape
    # entry 10 is the transpose feeding v
    assert grads[11][:2] == (None, None) and grads[11][2].shape == (3, 2)
    assert y.requires_grad


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        h = ad.linear(x, w)
        saved = weakref.ref(h.data)
        y = ad.gelu(h)
        del h
        loss = ad.sum_(y)
        tape.backward(loss)
    # the gelu record held the only other reference to h's array
    assert saved() is None
    assert y.grad is None
    assert loss.grad is not None and loss.grad.item() == 1.0
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert len(tape) == 0
    with pytest.raises(UsageError, match="already"):
        tape.backward(loss)


def test_tape_on_another_thread_records_nothing_from_this_one():
    x = Tensor(np.ones(3), requires_grad=True)
    entered, done = threading.Event(), threading.Event()
    seen = {}

    def hold_tape():
        with Tape() as tape:
            entered.set()
            done.wait(10)
            seen["entries_before"] = len(tape)
            z = ad.mul(x, x)
            seen["requires_grad"] = z.requires_grad
            seen["entries"] = len(tape)

    worker = threading.Thread(target=hold_tape)
    worker.start()
    assert entered.wait(10)
    y = ad.mul(x, x)  # this thread holds no tape
    with Tape() as mine:
        ad.mul(x, x)
        done.set()
        worker.join(10)
        assert len(mine) == 1
    assert not worker.is_alive()
    assert y.requires_grad is False
    assert seen == {"entries_before": 0, "requires_grad": True, "entries": 1}


def test_no_tape_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, x)
    assert y.requires_grad is False
    with Tape() as tape:
        z = ad.mul(x, x)
        assert z.requires_grad is True
        assert len(tape) == 1


def test_getitem_scatters_grad():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(x[1:, :2]))
    want = np.zeros((3, 4), dtype=np.float32)
    want[1:, :2] = 1.0
    np.testing.assert_array_equal(x.grad, want)


def test_getitem_repeated_index_accumulates_grad():
    x = Tensor(np.zeros(3, np.float64), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(x[[0, 0, 1]]))
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])


def test_getitem_repeated_index_pairs_accumulate_grad():
    x = Tensor(np.zeros((2, 3), np.float64), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(x[np.array([1, 1, 0]), 1:]))
    np.testing.assert_array_equal(x.grad, [[0, 1, 1], [0, 2, 2]])


# ---------------------------------------------------------------------------
# conv2d against the loop oracle


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 8, 6)).astype(np.float64)
    w = rng.normal(size=(5, 3, 3, 3)).astype(np.float64)
    b = rng.normal(size=5).astype(np.float64)
    for stride, pad in [(1, 1), (2, 1), (1, 0), (4, 3)]:
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        want = conv2d_loops(x, w, b, stride, pad)
        np.testing.assert_allclose(got.numpy(), want, rtol=1e-12)


def test_conv2d_overlapping_stride4_kernel7():
    # the patch-embedding configuration: 7x7 kernel moving by 4
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 3, 16, 16)).astype(np.float64)
    w = rng.normal(size=(2, 3, 7, 7)).astype(np.float64)
    b = np.zeros(2)
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=4, pad=3)
    assert got.shape == (1, 2, 4, 4)
    np.testing.assert_allclose(got.numpy(), conv2d_loops(x, w, b, 4, 3), rtol=1e-12)


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))


# ---------------------------------------------------------------------------
# window gathering and shape ops pinned bit for bit


def _conv_output_and_grads(op, leaves, stride, pad):
    """Forward output and the gradient of each leaf under a fixed upstream."""
    return _output_and_grads(lambda *ts: op(*ts, stride=stride, pad=pad), leaves)


def _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, pad):
    got = _conv_output_and_grads(op, (x, w, b), stride, pad)
    with monkeypatch.context() as m:
        m.setattr(ad, "_patches", reference_patches)
        want = _conv_output_and_grads(op, (x, w, b), stride, pad)
    for name, g, r in zip(("out", "dx", "dw", "db"), got, want):
        assert g.dtype == r.dtype and np.array_equal(g, r), (
            f"{op.__name__} {name} differs: shape {x.shape} stride {stride} pad {pad}"
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [ad.conv2d])
def test_conv_ops_match_reference_patches(monkeypatch, op, dtype):
    rng = np.random.default_rng(21)
    for kernel, stride, pad, bsz in itertools.product((1, 3, 7), (1, 2, 4), (0, 1, 3), (1, 3)):
        x = rng.normal(size=(bsz, 3, 9, 11)).astype(dtype)
        w = rng.normal(size=(2, 3, kernel, kernel)).astype(dtype)
        b = rng.normal(size=2).astype(dtype)
        _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, pad)


@pytest.mark.parametrize("op", [ad.conv2d])
def test_conv_ops_match_reference_patches_on_transposed_view(monkeypatch, op):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 9, 11, 3)).astype(np.float32).transpose(0, 3, 1, 2)
    assert not x.flags.c_contiguous
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    for stride in (1, 2):
        _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, 0)


# The former ``autodiff.attention``, which took head-split q, k and v and a
# scale, and ``attention.split_heads`` / ``merge_heads``, kept verbatim (bar
# the ``ad.`` prefixes): the token-layout op must match the chain that
# MixedAttention built from them bit for bit.
def reference_attention(q, k, v, scale):
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    w = ad._attention_weights(q.data, k.data, scale)
    y = np.matmul(w, v.data)
    out = Tensor(y)

    def vjp(g):
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(w, -1, -2), g)
        if q.requires_grad or k.requires_grad:
            gw = np.matmul(g, np.swapaxes(v.data, -1, -2))
            gw -= np.add.reduce(gw * w, axis=-1, keepdims=True)
            gw *= w
            gw *= np.asarray(scale, dtype=gw.dtype)
            if q.requires_grad:
                gq = np.matmul(gw, k.data)
            if k.requires_grad:
                gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gw), -1, -2)
        return gq, gk, gv

    return ad._record("attention", out, (q, k, v), vjp)


def split_heads(x, heads):
    """[B, L, D] -> [B, H, L, D/H]."""
    b, n, dim = x.shape
    return ad.transpose(ad.reshape(x, (b, n, heads, dim // heads)), (0, 2, 1, 3))


def merge_heads(x):
    """[B, H, L, d] -> [B, L, H*d]."""
    b, h, n, d = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, n, h * d))


def attention_chain(q, k, v, scale):
    """The op chain the fused attention replaced, as MixedAttention and the
    score predictor ran it: kᵀ, product, mul by the scale, softmax, product,
    each product a bias-free ``linear``."""
    kt = ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    logits = ad.mul(ad.linear(q, kt), scale)
    return ad.linear(ad.softmax(logits), v)


# (q, k, v) token shapes and head count: MAM rows, including B=4, and the
# score predictor's single-head rows
ATTENTION_SHAPES = [
    ((1, 40, 16), (1, 20, 16), (1, 20, 16), 2),
    ((4, 17, 64), (4, 9, 64), (4, 9, 64), 4),
    ((1, 32), (16, 32), (16, 32), 1),
    ((16, 32), (36, 32), (36, 32), 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shapes", ATTENTION_SHAPES)
def test_attention_matches_the_op_chain_bit_for_bit(shapes, dtype):
    *token_shapes, heads = shapes
    rng = np.random.default_rng(31)
    q, k, v = (rng.normal(size=shape).astype(dtype) for shape in token_shapes)
    scale = 1.0 / float(np.sqrt(q.shape[-1] // heads))

    def chain(q, k, v):
        if q.ndim == 2:
            return attention_chain(q, k, v, scale)
        q, k, v = (split_heads(t, heads) for t in (q, k, v))
        return merge_heads(attention_chain(q, k, v, scale))

    got = _output_and_grads(lambda q, k, v: ad.attention(q, k, v, heads), (q, k, v))
    want = _output_and_grads(chain, (q, k, v))
    _assert_same_bits(got, want, f"attention {shapes}")


def mixed_attention_chain(q, k, v, heads, lt, kt, asymmetric):
    """The attention steps of the former MixedAttention after its linear
    projections, for a joint pass: the head split, the template keys cut out
    and concatenated back with the search keys, one attention call per query
    group and the head merge."""
    q, k, v = (split_heads(t, heads) for t in (q, k, v))
    k_t, k_s = k[:, :, :kt], k[:, :, kt:]
    v_t, v_s = v[:, :, :kt], v[:, :, kt:]
    k, v = ad.concat([k_t, k_s], axis=-2), ad.concat([v_t, v_s], axis=-2)
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    keys = (k_t, v_t) if asymmetric else (k, v)
    outs = [reference_attention(q[:, :, :lt], *keys, scale),
            reference_attention(q[:, :, lt:], k, v, scale)]
    return merge_heads(ad.concat(outs, 2))


def cached_attention_chain(q, k_t, k_s, v_t, v_s, heads):
    """The same for a cached pass: head-split cached template keys, the
    search keys concatenated after them, and the search queries alone."""
    q, k_t, k_s, v_t, v_s = (split_heads(t, heads) for t in (q, k_t, k_s, v_t, v_s))
    k, v = ad.concat([k_t, k_s], axis=-2), ad.concat([v_t, v_s], axis=-2)
    return merge_heads(reference_attention(q, k, v, 1.0 / float(np.sqrt(q.shape[-1]))))


# (B, heads, template rows, search rows, extra rows, template keys, search
# keys, width): the tiny preset's stage-1 and stage-3 blocks at the tracking
# and the training batch, and small odd shapes
MAM_SHAPES = [
    (1, 1, 128, 256, 0, 32, 64, 16),
    (4, 1, 128, 256, 0, 32, 64, 16),
    (1, 4, 8, 16, 1, 2, 4, 64),
    (4, 4, 8, 16, 1, 2, 4, 64),
    (4, 2, 6, 15, 0, 3, 5, 8),
]


@pytest.mark.parametrize("asymmetric", [True, False])
@pytest.mark.parametrize("shape", MAM_SHAPES)
def test_attention_matches_the_head_split_chain_bit_for_bit(shape, asymmetric):
    b, heads, lt, ls, extra, kt, ks, dim = shape
    rng = np.random.default_rng(31)
    q, k, v = (rng.normal(size=(b, n, dim)).astype(np.float32)
               for n in (lt + ls + extra, kt + ks, kt + ks))
    split = (lt, kt if asymmetric else kt + ks)
    got = _output_and_grads(lambda q, k, v: ad.attention(q, k, v, heads, split), (q, k, v))
    want = _output_and_grads(
        lambda q, k, v: mixed_attention_chain(q, k, v, heads, lt, kt, asymmetric), (q, k, v)
    )
    _assert_same_bits(got, want, f"attention {shape} asymmetric={asymmetric}")
    for g in got[1:]:
        assert g.flags.c_contiguous


@pytest.mark.parametrize("shape", MAM_SHAPES)
def test_cached_attention_matches_the_head_split_chain_bit_for_bit(shape):
    b, heads, _, ls, extra, kt, ks, dim = shape
    rng = np.random.default_rng(35)
    q = rng.normal(size=(b, ls + extra, dim)).astype(np.float32)
    k_t, k_s, v_t, v_s = (rng.normal(size=(b, n, dim)).astype(np.float32)
                          for n in (kt, ks, kt, ks))

    def op(q, k_t, k_s, v_t, v_s):
        k, v = ad.concat([k_t, k_s], axis=1), ad.concat([v_t, v_s], axis=1)
        return ad.attention(q, k, v, heads)

    got = _output_and_grads(op, (q, k_t, k_s, v_t, v_s))
    want = _output_and_grads(lambda *a: cached_attention_chain(*a, heads),
                             (q, k_t, k_s, v_t, v_s))
    _assert_same_bits(got, want, f"cached attention {shape}")


@pytest.mark.parametrize("shapes", [
    ((1, 1100, 32), 2, None),
    ((1100, 32), 1, None),
    ((1, 1700, 32), 2, (600, 100)),
])
def test_attention_row_blocks_match_one_block(shapes):
    """The forward runs each query group in row blocks, taped or not, and the
    vjp recomputes a group's weights whole: output and gradients equal the
    per-group chain that computes every group's weights in one block."""
    shape, heads, split = shapes
    rng = np.random.default_rng(32)
    lk = 300 if len(shape) == 3 else 40
    q, k, v = (rng.normal(size=s).astype(np.float32)
               for s in (shape, shape[:-2] + (lk, 32), shape[:-2] + (lk, 32)))
    groups = ad._query_groups(q.shape[-2], lk, split)
    assert all(rows.stop - rows.start > ad._ATTENTION_ROWS for rows, _ in groups)
    assert q.shape[-2] > 2 * ad._ATTENTION_ROWS

    def chain(q, k, v):
        if split is not None:
            return mixed_attention_chain(q, k, v, heads, *split, asymmetric=True)
        if q.ndim == 2:
            return reference_attention(q, k, v, 1.0 / float(np.sqrt(32)))
        q, k, v = (split_heads(t, heads) for t in (q, k, v))
        return merge_heads(reference_attention(q, k, v, 1.0 / float(np.sqrt(32 // heads))))

    got = _output_and_grads(lambda q, k, v: ad.attention(q, k, v, heads, split), (q, k, v))
    want = _output_and_grads(chain, (q, k, v))
    _assert_same_bits(got, want, f"attention {shapes}")
    untaped = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads, split).numpy()
    assert np.array_equal(untaped, got[0])


def test_taped_attention_saves_no_weights():
    """A taped forward keeps its output and its inputs' views, not a softmax
    matrix: here one is 1.44 MB against 58 KB of q, k and v, and the vjp
    recomputes it."""
    rng = np.random.default_rng(36)
    q, k, v = (Tensor(rng.normal(size=(1, 600, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    weight_bytes = 600 * 600 * 4
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            y = ad.attention(q, k, v, 1)
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(ad.sum_(y))
    finally:
        tracemalloc.stop()
    assert held < weight_bytes, held
    assert all(t.grad is not None for t in (q, k, v))


def test_attention_shape_errors():
    def t(*shape):
        return Tensor(np.zeros(shape))

    bad = [
        (t(5, 4), t(6, 3), t(6, 2), 1, None),             # q and k widths differ
        (t(5, 4), t(6, 4), t(7, 2), 1, None),             # k and v lengths differ
        (t(2, 5, 4), t(3, 6, 4), t(3, 6, 4), 1, None),    # leading axes differ
        (t(1, 5, 4), t(6, 4), t(6, 4), 1, None),          # ranks differ
        (t(4), t(4), t(4), 1, None),                      # vectors
        (t(5, 4), t(6, 4), t(6, 4), 3, None),             # heads do not divide C
        (t(5, 4), t(6, 4), t(6, 6), 4, None),             # nor the value width
        (t(5, 4), t(6, 4), t(6, 4), 0, None),             # no head
        (t(5, 4), t(6, 4), t(6, 4), 2, (5, 3)),           # no second query group
        (t(5, 4), t(6, 4), t(6, 4), 2, (0, 3)),           # no first query group
        (t(5, 4), t(6, 4), t(6, 4), 2, (2, 7)),           # more keys than there are
        (t(5, 4), t(6, 4), t(6, 4), 2, (2, 0)),           # no key for the first group
    ]
    for q, k, v, heads, split in bad:
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, heads, split)


# (B, H, W) of 16-channel maps; the output sizes fall on both sides of the
# tap-major switch point, B=2 at 16x16 exactly on it
DEPTHWISE_MAPS = [(1, 16, 16), (2, 16, 16), (4, 16, 16), (1, 48, 48), (1, 5, 7)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bsz, h, wd", DEPTHWISE_MAPS)
def test_depthwise_matches_reference_on_both_paths(bsz, h, wd, dtype):
    rng = np.random.default_rng(30)
    x = rng.normal(size=(bsz, h * wd, 16)).astype(dtype)
    w = rng.normal(size=(16, 3, 3)).astype(dtype)
    # channel-major rows seen channels-last: the op reads a strided view
    strided = rng.normal(size=(bsz, 16, h * wd)).astype(dtype).transpose(0, 2, 1)
    cases = [(x, s, p) for s in (1, 2) for p in (0, 1)]
    cases += [(strided, s, 0) for s in (1, 2)]
    for xs, stride, pad in cases:
        got = _conv_output_and_grads(token_depthwise([(1, h, wd)]), (xs, w), stride, pad)
        want = _conv_output_and_grads(per_region_chain([(1, h, wd)]), (xs, w), stride, pad)
        _assert_same_bits(got, want, f"depthwise {xs.shape} stride {stride} pad {pad}")


def token_depthwise(grids):
    """``ad.depthwise_conv2d`` over fixed grids, called as the conv ops are."""
    def op(x, w, stride, pad):
        return ad.depthwise_conv2d(x, grids, w, stride=stride, pad=pad)
    return op


def per_region_chain(grids):
    """The former per-region projection over fixed grids: each region's rows
    cut out, reshaped to channels-last maps, convolved by the former op,
    reshaped back, and the regions concatenated."""
    def op(x, w, stride, pad):
        bsz, c = x.shape[0], x.shape[-1]
        parts, start = [], 0
        for n, h, wd in grids:
            rows = x[:, start : start + n * h * wd]
            start += n * h * wd
            y = reference_depthwise(ad.reshape(rows, (bsz * n, h, wd, c)), w, stride, pad)
            parts.append(ad.reshape(y, (bsz, -1, c)))
        return parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
    return op


@pytest.mark.parametrize("bsz", [1, 4])
def test_depthwise_regions_match_per_region_calls_bit_for_bit(bsz):
    # two 8x8 templates and a 16x16 search map of 16 channels, then one row
    # no grid covers: at B=4 the stride-1 search region takes the per-tap
    # loop and the template region the tap-major product
    rng = np.random.default_rng(37)
    grids = [(2, 8, 8), (1, 16, 16)]
    x = rng.normal(size=(bsz, 2 * 64 + 256 + 1, 16)).astype(np.float32)
    w = rng.normal(size=(16, 3, 3)).astype(np.float32)
    for stride in (1, 2):
        got = _conv_output_and_grads(token_depthwise(grids), (x, w), stride, 1)
        want = _conv_output_and_grads(per_region_chain(grids), (x, w), stride, 1)
        _assert_same_bits(got, want, f"depthwise regions B={bsz} stride {stride}")
        assert got[1].flags.c_contiguous and not got[1][:, -1].any()


def test_depthwise_maps_cover_both_paths():
    sizes = {
        bsz * ad._conv_out_extent(h, 3, s, p) * ad._conv_out_extent(wd, 3, s, p) * 16
        for bsz, h, wd in DEPTHWISE_MAPS for s in (1, 2) for p in (0, 1)
    }
    assert ad._TAP_MAJOR_MAX in sizes
    assert min(sizes) < ad._TAP_MAJOR_MAX < max(sizes)


@pytest.mark.parametrize(
    "perm", list(itertools.permutations(range(4))) + [(0, -1, 1, 2), (-4, -2, -3, -1)]
)
def test_transpose_gradient_round_trips(perm):
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    with Tape() as tape:
        y = ad.transpose(x, perm)
        upstream = rng.normal(size=y.shape)
        tape.backward(ad.sum_(ad.mul(y, Tensor(upstream))))
    assert np.array_equal(y.numpy(), np.transpose(x.numpy(), perm))
    assert x.grad.shape == x.shape
    assert np.array_equal(np.transpose(x.grad, perm), upstream)


@pytest.mark.parametrize("widths", [(4,), (2, 3), (1, 0, 3)])
@pytest.mark.parametrize("axis", [1, -2])
def test_concat_gradient_splits_at_part_boundaries(widths, axis):
    rng = np.random.default_rng(25)
    parts = [Tensor(rng.normal(size=(2, n, 3)), requires_grad=True) for n in widths]
    with Tape() as tape:
        y = ad.concat(parts, axis=axis)
        upstream = rng.normal(size=y.shape)
        tape.backward(ad.sum_(ad.mul(y, Tensor(upstream))))
    assert y.shape == (2, sum(widths), 3)
    start = 0
    for part, n in zip(parts, widths):
        want = upstream[:, start : start + n]
        assert part.grad.shape == want.shape
        assert np.array_equal(part.grad, want)
        start += n


# ---------------------------------------------------------------------------
# finite differences over every registered op


def _fd_case(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    def t(shape, lo=-1.0, hi=1.0):
        return Tensor(np.asarray(rng.uniform(lo, hi, size=shape), np.float64), requires_grad=True)

    if name == "add":
        a, b = t((3, 4)), t((4,))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.add(a, b), y))
    if name == "sub":
        a, b = t((3, 4)), t((3, 1))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.sub(a, b), y))
    if name == "mul":
        a, b = t((2, 3)), t((1, 3))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.mul(a, b), b))
    if name == "div":
        a, b = t((2, 3)), t((2, 1), lo=1.0, hi=2.0)
        return {"a": a, "b": b}, lambda: ad.sum_(ad.div(a, b))
    if name in ("maximum", "minimum"):
        # a stays at least 0.2 away from the broadcast b, on either side
        b = t((3, 1))
        a = Tensor(np.asarray(b.numpy() + rng.choice([-1.0, 1.0], size=(3, 3))
                              * rng.uniform(0.2, 1.0, (3, 3)), np.float64),
                   requires_grad=True)
        op = getattr(ad, name)
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := op(a, b), y))
    if name == "log":
        a = t((3, 2), lo=0.5, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.log(a))
    if name == "abs":
        a = t((3, 2), lo=0.2, hi=1.0)
        return {"a": a}, lambda: ad.sum_(ad.abs_(ad.mul(a, -1.0)))
    if name == "relu":
        a = Tensor(np.asarray(rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.2, 1.0, (4, 4)),
                              np.float64),
                   requires_grad=True)
        return {"a": a}, lambda: ad.sum_(ad.relu(a))
    if name == "sigmoid":
        a = t((3, 3), lo=-2.0, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.sigmoid(a), y))
    if name == "gelu":
        a = t((3, 3), lo=-2.0, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.gelu(a))
    if name == "sum_axis":
        a = t((2, 3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.sum_(a, axis=(0, 2)), y))
    if name == "mean":
        a = t((3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.mean_(a), y))
    if name == "reshape":
        a = t((2, 6))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.reshape(a, (3, 4)), y))
    if name == "transpose":
        a = t((2, 3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.transpose(a, (2, 0, 1)), y))
    if name == "concat":
        a, b = t((2, 3)), t((2, 2))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.concat([a, b], axis=1), y))
    if name == "take":
        a = t((4, 5))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := a[1:3, ::2], y))
    if name == "take_repeated":
        a = t((4, 5))
        rows, cols = [2, 0, 2, 3, 2], np.array([1, 4, 1, 1, 0])
        return {"a": a}, lambda: ad.sum_(ad.mul(y := a[rows, cols], y))
    if name == "softmax":
        a = t((3, 5), lo=-2.0, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.softmax(a), y))
    if name == "layer_norm":
        a, g, b = t((2, 6)), t((6,), lo=0.5, hi=1.5), t((6,))
        return {"a": a, "g": g, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.layer_norm(a, g, b), y)
        )
    if name == "edge_pad":
        a = t((2, 2, 3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.edge_pad(a), y))
    if name == "conv2d":
        x, w, b = t((2, 2, 5, 5)), t((3, 2, 3, 3)), t((3,))
        return {"x": x, "w": w, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.conv2d(x, w, b, stride=2, pad=1), y)
        )
    if name == "depthwise_conv2d":
        # two 2x3 templates and a 5x5 search map, then a row no grid covers
        x, w = t((2, 2 * 6 + 25 + 1, 3)), t((3, 3, 3))
        grids = [(2, 2, 3), (1, 5, 5)]
        return {"x": x, "w": w}, lambda: ad.sum_(
            ad.mul(y := ad.depthwise_conv2d(x, grids, w, stride=2, pad=1), y)
        )
    if name == "attention":
        q, k, v = t((2, 3, 4), lo=-2.0, hi=2.0), t((2, 5, 4), lo=-2.0, hi=2.0), t((2, 5, 6))
        return {"q": q, "k": k, "v": v}, lambda: ad.sum_(
            ad.mul(y := ad.attention(q, k, v, 2), y)
        )
    if name == "attention_split":
        q, k, v = t((2, 5, 4), lo=-2.0, hi=2.0), t((2, 6, 4), lo=-2.0, hi=2.0), t((2, 6, 4))
        return {"q": q, "k": k, "v": v}, lambda: ad.sum_(
            ad.mul(y := ad.attention(q, k, v, 2, split=(2, 3)), y)
        )
    if name == "linear":
        x, w, b = t((2, 3, 4)), t((4, 5)), t((5,))
        return {"x": x, "w": w, "b": b}, lambda: ad.sum_(ad.mul(y := ad.linear(x, w, b), y))
    raise AssertionError(name)


ALL_OPS = [
    "add", "sub", "mul", "div", "maximum", "minimum", "log",
    "abs", "relu", "sigmoid", "gelu", "sum_axis",
    "mean", "reshape", "transpose", "concat", "take",
    "take_repeated", "softmax", "layer_norm", "edge_pad",
    "conv2d", "depthwise_conv2d", "linear", "attention", "attention_split",
]
# cases named otherwise than the function they check
CASE_FUNCTIONS = {
    "abs": "abs_", "sum_axis": "sum_", "mean": "mean_",
    "take_repeated": "take", "attention_split": "attention",
}
# public functions that are not ops: they record nothing of their own
# (``attention_weights`` returns plain arrays, the weights ``attention``
# recomputes in its vjp)
NOT_OPS = {"as_tensor", "attention_weights"}


def _public_functions():
    return {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and not name.startswith("_")
    }


def test_every_public_autodiff_function_has_a_finite_difference_case():
    public = _public_functions()
    covered = {CASE_FUNCTIONS.get(case, case) for case in ALL_OPS}
    assert covered <= public and not covered & NOT_OPS and NOT_OPS <= public
    assert public - covered - NOT_OPS == set()


# public functions that no other package module calls: ``take`` is reached
# through ``Tensor.__getitem__``
UNCALLED = {"take"}


def _autodiff_calls(path):
    """(name, call node) of each autodiff function call in the package module
    at ``path``: ``alias.name(...)`` after ``from . import autodiff as
    alias``, ``name(...)`` after ``from .autodiff import name``, and in
    autodiff itself ``name(...)`` of one of its own functions."""
    tree = ast.parse(path.read_text())
    aliases, imported = set(), {}
    if path.name == "autodiff.py":
        imported = {name: name for name in _public_functions()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name == "autodiff":
                    aliases.add(a.asname or a.name)
                elif node.module == "autodiff":
                    imported[a.asname or a.name] = a.name
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in aliases:
            calls.append((f.attr, node))
        elif isinstance(f, ast.Name) and f.id in imported:
            calls.append((imported[f.id], node))
    return calls


def _package_modules():
    return sorted(pathlib.Path(ad.__file__).parent.glob("*.py"))


def test_every_public_autodiff_function_has_a_package_caller():
    """No op lives on for tests alone: each is called from another module."""
    called = {name for p in _package_modules() if p.name != "autodiff.py"
              for name, _ in _autodiff_calls(p)}
    public = _public_functions()
    assert UNCALLED <= public and not UNCALLED & called
    assert public - called - UNCALLED == set()


# The public functions of the autodiff module.  A change that adds one raises
# this ceiling in its own diff and gives the reason in CHANGES.md.
PUBLIC_CEILING = 26


def test_public_autodiff_functions_stay_under_the_ceiling():
    tree = ast.parse(pathlib.Path(ad.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert len(public) <= PUBLIC_CEILING, public


def test_no_package_module_reads_a_private_autodiff_name():
    """Autodiff keeps its internals: no other package module reads an
    ``alias._name`` attribute after ``from . import autodiff as alias``."""
    found = []
    for path in _package_modules():
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None
                   for a in node.names if a.name == "autodiff"}
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_")]
    assert found == []


def _set_parameters(name, call):
    """Parameters of autodiff function ``name`` that ``call`` passes a value
    other than their default literal; any non-literal value counts as set."""
    params = list(inspect.signature(getattr(ad, name)).parameters.values())
    passed = [(params[i], arg) for i, arg in enumerate(call.args)
              if not isinstance(arg, ast.Starred)]
    passed += [(p, kw.value) for kw in call.keywords
               for p in params if p.name == kw.arg]
    unpacked = any(isinstance(a, ast.Starred) for a in call.args) \
        or any(kw.arg is None for kw in call.keywords)
    out = {p.name for p in params if unpacked}
    for p, value in passed:
        try:
            literal = ast.literal_eval(value)
        except ValueError:
            out.add(p.name)
            continue
        if type(literal) is not type(p.default) or literal != p.default:
            out.add(p.name)
    return out


def test_every_defaulted_autodiff_parameter_is_set_by_the_package():
    """No op parameter lives on for tests alone: each one with a default is
    passed another value by some call under the package."""
    set_by_package = {(name, p) for path in _package_modules()
                      for name, call in _autodiff_calls(path)
                      for p in _set_parameters(name, call)}
    defaulted = {
        (name, p.name) for name in _public_functions()
        for p in inspect.signature(getattr(ad, name)).parameters.values()
        if p.default is not inspect.Parameter.empty
    }
    assert defaulted - set_by_package == set()


@pytest.mark.parametrize("op", ALL_OPS)
def test_op_gradient_matches_finite_difference(op):
    params, f = _fd_case(op)
    report = grad_check(f, params, h=1e-5)
    assert max(report.values()) < 1e-4, f"{op}: {report}"


@pytest.mark.parametrize("stride, pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_depthwise_gradient_matches_finite_difference(stride, pad):
    rng = np.random.default_rng(26)
    x, w = (
        Tensor(np.asarray(rng.uniform(-1.0, 1.0, size=shape), np.float64), requires_grad=True)
        for shape in ((2, 3, 2 * 9 + 30), (3, 3, 3))
    )

    def f():
        # a channel-major leaf seen as token rows: the op reads a strided view
        y = ad.depthwise_conv2d(ad.transpose(x, (0, 2, 1)), [(2, 3, 3), (1, 6, 5)], w,
                                stride=stride, pad=pad)
        return ad.sum_(ad.mul(y, y))

    report = grad_check(f, {"x": x, "w": w}, h=1e-5)
    assert max(report.values()) < 1e-4, report


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_layer_tight():
    rng = np.random.default_rng(10)
    x = Tensor(np.asarray(rng.normal(size=(5, 4)), np.float64))
    w = Tensor(np.asarray(rng.normal(size=(4, 3)), np.float64), requires_grad=True)
    b = Tensor(np.asarray(rng.normal(size=3), np.float64), requires_grad=True)

    def f():
        y = ad.linear(x, w, b)
        return ad.sum_(ad.mul(y, y))

    assert max(grad_check(f, {"w": w, "b": b}, h=1e-5).values()) < 1e-6


def test_grad_check_attention_core():
    rng = np.random.default_rng(11)
    q = Tensor(np.asarray(rng.normal(size=(4, 6)), np.float64), requires_grad=True)
    k = Tensor(np.asarray(rng.normal(size=(5, 6)), np.float64), requires_grad=True)
    v = Tensor(np.asarray(rng.normal(size=(5, 6)), np.float64), requires_grad=True)

    def f():
        logits = ad.mul(ad.linear(q, ad.transpose(k, (1, 0))), 1.0 / np.sqrt(6.0))
        return ad.sum_(ad.linear(ad.softmax(logits), v))

    report = grad_check(f, {"q": q, "k": k, "v": v}, h=1e-5)
    assert max(report.values()) < 1e-5, report


def test_grad_check_catches_corrupted_backward():
    rng = np.random.default_rng(12)
    x = Tensor(np.asarray(rng.uniform(0.5, 1.5, size=4), np.float64), requires_grad=True)

    def bad_square(t):
        out = Tensor(t.data * t.data)
        # wrong on purpose: drops the factor of two
        return ad._record("bad_square", out, (t,), lambda g: (g * t.data,))

    report = grad_check(lambda: ad.sum_(bad_square(x)), {"x": x})
    assert max(report.values()) >= 1e-4


def test_grad_check_nonfinite_names_op():
    x = Tensor(np.array([-1.0], np.float64), requires_grad=True)
    with np.errstate(invalid="ignore"):
        with pytest.raises(GradCheckError) as exc:
            grad_check(lambda: ad.sum_(ad.log(x)), {"x": x})
    assert "log" in str(exc.value)


def test_grad_check_unused_param_reports_zero():
    x = Tensor(np.ones(2, np.float64), requires_grad=True)
    unused = Tensor(np.ones(2, np.float64), requires_grad=True)
    report = grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x, "unused": unused})
    assert max(report.values()) < 1e-6
    assert report["unused"] == 0.0


# ---------------------------------------------------------------------------
# determinism and dtype discipline


def _run_pipeline():
    rng = np.random.default_rng(123)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = ad.conv2d(x, w, stride=2, pad=1)
        z = ad.softmax(ad.reshape(y, (2, 64)))
        loss = ad.sum_(ad.mul(z, z))
        tape.backward(loss)
    return loss.numpy().tobytes(), x.grad.tobytes(), w.grad.tobytes()


def test_bit_identical_across_runs():
    assert _run_pipeline() == _run_pipeline()


def test_dtype_rules():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.zeros(2, dtype=np.float16)).dtype == np.float32
    x = Tensor(np.ones(3, dtype=np.float32))
    assert ad.mul(x, 2.0).dtype == np.float32
    assert ad.add(x, 1).dtype == np.float32
    assert ad.mean_(x).dtype == np.float32
    assert ad.softmax(x).dtype == np.float32
    assert ad.gelu(x).dtype == np.float32


def test_grad_shape_matches_tensor_shape():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 1, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.add(x, b)))
    assert x.grad.shape == (2, 1, 3)
    assert b.grad.shape == (4, 3)
