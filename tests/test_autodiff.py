import itertools
import zlib

import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack.autodiff import Tape, Tensor
from mixtrack.errors import ConfigError, GradCheckError, ShapeError, UsageError


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


def depthwise_loops(x, k, b, stride, pad):
    bsz, c, h, wd = x.shape
    _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((bsz, c, oh, ow), dtype=x.dtype)
    for bi in range(bsz):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, ci, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    y[bi, ci, i, j] = (patch * k[ci]).sum() + b[ci]
    return y


# The former ``autodiff._patches``, built on np.pad and sliding_window_view,
# kept verbatim: the conv ops must match it bit for bit.
def reference_patches(x, kh, kw, stride, pad):
    """Strided view of all kernel windows: [B, C, H', W', kh, kw]."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride], x.shape


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)).astype(np.float32)
    out = ad.matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(a))
    np.testing.assert_array_equal(out.numpy(), a)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).numpy(), [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros(3)), b)


def test_matmul_grad_matches_central_difference():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), dtype=np.float64, requires_grad=True)

    def f():
        return ad.sum_(ad.matmul(a, b))

    report = ad.grad_check(f, {"a": a, "b": b}, h=1e-5, tol=1e-6)
    assert report.ok(1e-6), report
    # grad of sum(A.B) wrt A in closed form is ones @ B^T
    with Tape() as tape:
        tape.backward(f())
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.numpy().T, rtol=1e-12)


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(5, 3, 4)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), dtype=np.float64, requires_grad=True)

    def f():
        y = ad.matmul(a, b)
        return ad.sum_(ad.mul(y, y))

    report = ad.grad_check(f, {"a": a, "b": b}, h=1e-5, tol=1e-6)
    assert report.ok(1e-6), report


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
    y = ad.softmax(Tensor([np.log(2.0), 0.0], dtype=np.float64)).numpy()
    np.testing.assert_allclose(y, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(scale=50.0, size=(4, 7, 9)).astype(np.float32))
    y = ad.softmax(x, axis=1).numpy()
    assert y.dtype == np.float32
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# depthwise convolution


def test_depthwise_identity_kernel():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
    k = np.ones((3, 1, 1), dtype=np.float32)
    y = ad.depthwise_conv2d(Tensor(x), Tensor(k))
    np.testing.assert_array_equal(y.numpy(), x)


def test_depthwise_all_ones_interior():
    c = 1.5
    x = np.full((2, 6, 6), c, dtype=np.float32)
    k = np.ones((2, 3, 3), dtype=np.float32)
    y = ad.depthwise_conv2d(Tensor(x), Tensor(k), pad=1).numpy()
    assert y.shape == (2, 6, 6)
    np.testing.assert_allclose(y[:, 1:-1, 1:-1], 9 * c, rtol=1e-6)


def test_depthwise_stride2_extents():
    x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
    k = Tensor(np.zeros((1, 3, 3), dtype=np.float32))
    assert ad.depthwise_conv2d(x, k, stride=2, pad=1).shape == (1, 1, 8, 8)


def test_depthwise_bad_extent_raises():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    k = Tensor(np.zeros((1, 5, 5), dtype=np.float32))
    with pytest.raises(ConfigError):
        ad.depthwise_conv2d(x, k)


def test_depthwise_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.depthwise_conv2d(
            Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 3)))
        )


def test_depthwise_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 9, 7)).astype(np.float64)
    k = rng.normal(size=(4, 3, 3)).astype(np.float64)
    b = rng.normal(size=4).astype(np.float64)
    for stride, pad in [(1, 1), (2, 1), (1, 0), (3, 2)]:
        got = ad.depthwise_conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, pad=pad)
        want = depthwise_loops(x, k, b, stride, pad)
        np.testing.assert_allclose(got.numpy(), want, rtol=1e-12)


# ---------------------------------------------------------------------------
# layer_norm / gelu / linear / batch_norm_frozen


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


def test_layer_norm_bad_eps_raises():
    x = Tensor(np.zeros((1, 4)))
    one = Tensor(np.ones(4))
    with pytest.raises(ConfigError):
        ad.layer_norm(x, one, one, eps=0.0)


def test_gelu_at_zero():
    x = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        y = ad.gelu(x)
        tape.backward(ad.sum_(y))
    assert y.numpy()[0] == 0.0
    np.testing.assert_allclose(x.grad, 0.5, atol=1e-12)
    # central difference at the same point
    h = 1e-6
    fd = (ad.gelu(Tensor([h], dtype=np.float64)).numpy()[0]
          - ad.gelu(Tensor([-h], dtype=np.float64)).numpy()[0]) / (2 * h)
    np.testing.assert_allclose(fd, 0.5, atol=1e-9)


def test_linear_identity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 3)).astype(np.float32)
    w = Tensor(np.eye(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float32))
    np.testing.assert_array_equal(ad.linear(Tensor(x), w, b).numpy(), x)


def test_batch_norm_frozen_matches_formula():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float64)
    mean = rng.normal(size=3)
    var = rng.uniform(0.5, 2.0, size=3)
    gain = rng.normal(size=3)
    bias = rng.normal(size=3)
    y = ad.batch_norm_frozen(
        Tensor(x), mean, var, Tensor(gain), Tensor(bias), eps=1e-5
    ).numpy()
    want = (x - mean[None, :, None, None]) / np.sqrt(var + 1e-5)[None, :, None, None]
    want = want * gain[None, :, None, None] + bias[None, :, None, None]
    np.testing.assert_allclose(y, want, rtol=1e-10)
    with pytest.raises(ConfigError):
        ad.batch_norm_frozen(Tensor(x), mean, var, Tensor(gain), Tensor(bias), eps=-1.0)


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


def test_backward_without_tape_raises():
    with pytest.raises(UsageError):
        ad.backward(Tensor(np.zeros(())))


def test_frozen_tensor_receives_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.ones(3), requires_grad=False)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, w)))
    assert x.grad is not None
    assert w.grad is None


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
    x = Tensor(np.zeros(3), dtype=np.float64, requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(x[[0, 0, 1]]))
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])


def test_getitem_repeated_index_pairs_accumulate_grad():
    x = Tensor(np.zeros((2, 3)), dtype=np.float64, requires_grad=True)
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


def _conv_output_and_grads(op, x, w, b, stride, pad):
    """Forward output and the gradients of x, w and b under a fixed upstream."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape() as tape:
        y = op(*leaves, stride=stride, pad=pad)
        upstream = np.linspace(-1.0, 1.0, y.size).reshape(y.shape)
        tape.backward(ad.sum_(ad.mul(y, Tensor(upstream, dtype=y.dtype))))
    return [y.numpy()] + [t.grad for t in leaves]


def _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, pad):
    got = _conv_output_and_grads(op, x, w, b, stride, pad)
    with monkeypatch.context() as m:
        m.setattr(ad, "_patches", reference_patches)
        want = _conv_output_and_grads(op, x, w, b, stride, pad)
    for name, g, r in zip(("out", "dx", "dw", "db"), got, want):
        assert g.dtype == r.dtype and np.array_equal(g, r), (
            f"{op.__name__} {name} differs: shape {x.shape} stride {stride} pad {pad}"
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [ad.conv2d, ad.depthwise_conv2d])
def test_conv_ops_match_reference_patches(monkeypatch, op, dtype):
    rng = np.random.default_rng(21)
    for kernel, stride, pad, bsz in itertools.product((1, 3, 7), (1, 2, 4), (0, 1, 3), (1, 3)):
        x = rng.normal(size=(bsz, 3, 9, 11)).astype(dtype)
        if op is ad.conv2d:
            w = rng.normal(size=(2, 3, kernel, kernel)).astype(dtype)
            b = rng.normal(size=2).astype(dtype)
        else:
            w = rng.normal(size=(3, kernel, kernel)).astype(dtype)
            b = rng.normal(size=3).astype(dtype)
        _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, pad)


@pytest.mark.parametrize("op", [ad.conv2d, ad.depthwise_conv2d])
def test_conv_ops_match_reference_patches_on_transposed_view(monkeypatch, op):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 9, 11, 3)).astype(np.float32).transpose(0, 3, 1, 2)
    assert not x.flags.c_contiguous
    if op is ad.conv2d:
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
    else:
        w = rng.normal(size=(3, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
    for stride in (1, 2):
        _assert_matches_reference_patches(monkeypatch, op, x, w, b, stride, 0)


def test_depthwise_3d_input_matches_reference_patches(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 10, 10)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    for stride in (1, 2):
        _assert_matches_reference_patches(
            monkeypatch, ad.depthwise_conv2d, x, w, b, stride, 1
        )


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
        return Tensor(rng.uniform(lo, hi, size=shape), dtype=np.float64, requires_grad=True)

    if name == "add":
        a, b = t((3, 4)), t((4,))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.add(a, b), y))
    if name == "sub":
        a, b = t((3, 4)), t((3, 1))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.sub(a, b), y))
    if name == "mul":
        a, b = t((2, 3)), t((2, 3))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.mul(a, b), b))
    if name == "div":
        a, b = t((2, 3)), t((2, 3), lo=1.0, hi=2.0)
        return {"a": a, "b": b}, lambda: ad.sum_(ad.div(a, b))
    if name == "maximum":
        a = t((3, 3))
        b = Tensor(a.numpy() + rng.choice([-1.0, 1.0], size=(3, 3)) * 0.5,
                   dtype=np.float64, requires_grad=True)
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.maximum(a, b), y))
    if name == "minimum":
        a = t((3, 3))
        b = Tensor(a.numpy() + rng.choice([-1.0, 1.0], size=(3, 3)) * 0.5,
                   dtype=np.float64, requires_grad=True)
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.minimum(a, b), y))
    if name == "neg":
        a = t((4,))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.neg(a), y))
    if name == "exp":
        a = t((3, 2))
        return {"a": a}, lambda: ad.sum_(ad.exp(a))
    if name == "log":
        a = t((3, 2), lo=0.5, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.log(a))
    if name == "sqrt":
        a = t((3, 2), lo=0.5, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.sqrt(a))
    if name == "abs":
        a = t((3, 2), lo=0.2, hi=1.0)
        return {"a": a}, lambda: ad.sum_(ad.abs_(ad.neg(a)))
    if name == "relu":
        a = Tensor(rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.2, 1.0, (4, 4)),
                   dtype=np.float64, requires_grad=True)
        return {"a": a}, lambda: ad.sum_(ad.relu(a))
    if name == "sigmoid":
        a = t((3, 3), lo=-2.0, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.sigmoid(a), y))
    if name == "gelu":
        a = t((3, 3), lo=-2.0, hi=2.0)
        return {"a": a}, lambda: ad.sum_(ad.gelu(a))
    if name == "clamp":
        a = Tensor(rng.choice([-1.0, 1.0], size=(5,)) * rng.uniform(0.6, 1.0, 5),
                   dtype=np.float64, requires_grad=True)
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.clamp(a, -0.8, 0.8), y))
    if name == "sum_axis":
        a = t((2, 3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.sum_(a, axis=(0, 2)), y))
    if name == "sum_keepdims":
        a = t((2, 3))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.sum_(a, axis=1, keepdims=True), a))
    if name == "mean":
        a = t((3, 4))
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.mean_(a, axis=0), y))
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
        return {"a": a}, lambda: ad.sum_(ad.mul(y := ad.softmax(a, axis=-1), y))
    if name == "layer_norm":
        a, g, b = t((2, 6)), t((6,), lo=0.5, hi=1.5), t((6,))
        return {"a": a, "g": g, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.layer_norm(a, g, b), y)
        )
    if name == "batch_norm_frozen":
        a, g, b = t((2, 3, 2, 2)), t((3,), lo=0.5, hi=1.5), t((3,))
        mean = np.zeros(3)
        var = np.ones(3)
        return {"a": a, "g": g, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.batch_norm_frozen(a, mean, var, g, b), y)
        )
    if name == "conv2d":
        x, w, b = t((2, 2, 5, 5)), t((3, 2, 3, 3)), t((3,))
        return {"x": x, "w": w, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.conv2d(x, w, b, stride=2, pad=1), y)
        )
    if name == "depthwise_conv2d":
        x, w, b = t((2, 3, 5, 5)), t((3, 3, 3)), t((3,))
        return {"x": x, "w": w, "b": b}, lambda: ad.sum_(
            ad.mul(y := ad.depthwise_conv2d(x, w, b, stride=2, pad=1), y)
        )
    if name == "matmul":
        a, b = t((2, 3, 4)), t((2, 4, 2))
        return {"a": a, "b": b}, lambda: ad.sum_(ad.mul(y := ad.matmul(a, b), y))
    raise AssertionError(name)


ALL_OPS = [
    "add", "sub", "mul", "div", "maximum", "minimum", "neg", "exp", "log",
    "sqrt", "abs", "relu", "sigmoid", "gelu", "clamp", "sum_axis",
    "sum_keepdims", "mean", "reshape", "transpose", "concat", "take",
    "take_repeated", "softmax", "layer_norm", "batch_norm_frozen", "conv2d",
    "depthwise_conv2d", "matmul",
]


@pytest.mark.parametrize("op", ALL_OPS)
def test_op_gradient_matches_finite_difference(op):
    params, f = _fd_case(op)
    report = ad.grad_check(f, params, h=1e-5, tol=1e-4)
    assert report.ok(1e-4), f"{op}: {report}"


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_layer_tight():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(5, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.normal(size=3), dtype=np.float64, requires_grad=True)

    def f():
        y = ad.linear(x, w, b)
        return ad.sum_(ad.mul(y, y))

    assert ad.grad_check(f, {"w": w, "b": b}, h=1e-5, tol=1e-6).ok(1e-6)


def test_grad_check_attention_core():
    rng = np.random.default_rng(11)
    q = Tensor(rng.normal(size=(4, 6)), dtype=np.float64, requires_grad=True)
    k = Tensor(rng.normal(size=(5, 6)), dtype=np.float64, requires_grad=True)
    v = Tensor(rng.normal(size=(5, 6)), dtype=np.float64, requires_grad=True)

    def f():
        logits = ad.mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(6.0))
        return ad.sum_(ad.matmul(ad.softmax(logits, axis=-1), v))

    report = ad.grad_check(f, {"q": q, "k": k, "v": v}, h=1e-5, tol=1e-5)
    assert report.ok(1e-5), report


def test_grad_check_catches_corrupted_backward():
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(0.5, 1.5, size=4), dtype=np.float64, requires_grad=True)

    def bad_square(t):
        out = Tensor(t.data * t.data)
        # wrong on purpose: drops the factor of two
        return ad._record("bad_square", out, (t,), lambda g: (g * t.data,))

    report = ad.grad_check(lambda: ad.sum_(bad_square(x)), {"x": x})
    assert not report.ok(1e-4)


def test_grad_check_nonfinite_names_op():
    x = Tensor(np.array([-1.0]), dtype=np.float64, requires_grad=True)
    with np.errstate(invalid="ignore"):
        with pytest.raises(GradCheckError) as exc:
            ad.grad_check(lambda: ad.sum_(ad.log(x)), {"x": x})
    assert "log" in str(exc.value)


def test_grad_check_unused_param_reports_zero():
    x = Tensor(np.ones(2), dtype=np.float64, requires_grad=True)
    unused = Tensor(np.ones(2), dtype=np.float64, requires_grad=True)
    report = ad.grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x, "unused": unused})
    assert report.ok(1e-6)
    assert report.errors["unused"] == 0.0


# ---------------------------------------------------------------------------
# determinism and dtype discipline


def _run_pipeline():
    rng = np.random.default_rng(123)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = ad.conv2d(x, w, stride=2, pad=1)
        z = ad.softmax(ad.reshape(y, (2, 64)), axis=-1)
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
    assert (x * 2.0).dtype == np.float32
    assert (x + 1).dtype == np.float32
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
