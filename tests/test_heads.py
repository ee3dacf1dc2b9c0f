import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack import heads, losses
from mixtrack import nn
from mixtrack.autodiff import Tensor
from mixtrack.errors import ConfigError, ShapeError

from gradcheck import grad_check


def to_float64(module):
    params = module.named_params()
    for p in params.values():
        p.data = p.data.astype(np.float64)
    return params


def soft_argmax(m):
    """Expectation coordinates of one [h, w] map, read through the head's
    batched op as a [1, h, w] batch."""
    x, y = heads._soft_argmax_batched(Tensor(np.asarray(m)[None]))
    return x.item(), y.item()


class TestSoftArgmax:
    def test_sharp_peak_reads_off_position(self):
        m = np.zeros((8, 8))
        m[2, 5] = 1e4
        x, y = soft_argmax(m)
        assert abs(x - 5.0 / 7.0) < 1e-9
        assert abs(y - 2.0 / 7.0) < 1e-9

    def test_uniform_map_centers(self):
        x, y = soft_argmax(np.ones((6, 10)))
        assert abs(x - 0.5) < 1e-7
        assert abs(y - 0.5) < 1e-7

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        x, y = soft_argmax(m)
        p = np.exp(m - m.max())
        p /= p.sum()
        want_x = sum(
            p[i, j] * j / 3.0 for i in range(4) for j in range(4)
        )
        want_y = sum(
            p[i, j] * i / 3.0 for i in range(4) for j in range(4)
        )
        assert abs(x - want_x) < 1e-6
        assert abs(y - want_y) < 1e-6

    def test_translation_consistency(self):
        base = np.zeros((9, 9))
        base[1, 2] = 1e4
        shifted = np.zeros((9, 9))
        shifted[4, 7] = 1e4
        x0, y0 = soft_argmax(base)
        x1, y1 = soft_argmax(shifted)
        assert abs((x1 - x0) - 5.0 / 8.0) < 1e-9
        assert abs((y1 - y0) - 3.0 / 8.0) < 1e-9

    def test_single_cell_map(self):
        assert soft_argmax(np.array([[3.0]])) == (0.0, 0.0)


def pad_by_concat(x):
    """Replicate padding as slices and concats: six tape entries."""
    x = ad.concat([x[:, :, :, :1], x, x[:, :, :, -1:]], axis=3)
    return ad.concat([x[:, :, :1, :], x, x[:, :, -1:, :]], axis=2)


def test_frozen_batch_norm_folds_into_the_conv_weight_and_bias():
    """The premise that lets each corner conv stand without a batch norm:
    a frozen norm's per-channel scale s and shift beta after a bias-free
    conv equal the conv with its weight scaled by s and beta as its bias."""
    rng = np.random.default_rng(39)
    x = Tensor(rng.normal(size=(2, 3, 6, 5)))
    w = rng.normal(size=(4, 3, 3, 3))
    s, beta = rng.normal(size=4), rng.normal(size=4)
    normed = ad.conv2d(x, Tensor(w)).numpy() * s.reshape(1, 4, 1, 1) + beta.reshape(1, 4, 1, 1)
    folded = ad.conv2d(x, Tensor(w * s[:, None, None, None]), Tensor(beta))
    np.testing.assert_allclose(folded.numpy(), normed, rtol=1e-12, atol=1e-12)


class TestCornerHead:
    def test_dim_must_divide_16(self):
        with pytest.raises(ConfigError):
            heads.CornerHead(24, nn.Draw(np.random.default_rng(0)))

    def test_constant_features_give_center_point_box(self):
        head = heads.CornerHead(16, nn.Draw(np.random.default_rng(1)))
        feat = Tensor(np.full((1, 16, 5, 5), 0.7, dtype=np.float32))
        box = head(feat).numpy()[0]
        assert np.allclose(box, [0.5, 0.5, 0.5, 0.5], atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_box_stays_in_unit_square(self, seed):
        rng = np.random.default_rng(seed)
        head = heads.CornerHead(16, nn.Draw(rng))
        feat = Tensor(rng.normal(size=(2, 16, 4, 6)).astype(np.float32))
        b = head(feat).numpy()
        assert (b >= 0.0).all() and (b <= 1.0).all()

    def test_corners_are_ordered(self):
        rng = np.random.default_rng(11)
        head = heads.CornerHead(16, nn.Draw(rng))
        feat = Tensor(rng.normal(size=(4, 16, 4, 4)).astype(np.float32))
        b = head(feat).numpy()
        assert (b[:, 2] >= b[:, 0]).all()
        assert (b[:, 3] >= b[:, 1]).all()

    def test_wrong_channel_count(self):
        head = heads.CornerHead(16, nn.Draw(np.random.default_rng(2)))
        with pytest.raises(ShapeError):
            head(Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)))

    def test_box_loss_gradients_match_finite_differences(self):
        # The narrowest head the constructor builds (dim 16) has ~3.2k
        # parameters to difference.  Dropping the first layer of each stack
        # leaves the same head over 8 channels, with ~800, every one checked.
        # seed chosen so no relu pre-activation sits within the FD step of 0
        rng = np.random.default_rng(16)
        head = heads.CornerHead(16, nn.Draw(rng))
        for stack in (head.tl, head.br):
            del stack[0]
        head.dim = 8
        params = to_float64(head)
        feat = Tensor(rng.normal(size=(1, 8, 3, 3)))
        tgt = np.array([[0.2, 0.25, 0.7, 0.8]])

        def f():
            return losses.loc_loss(head(feat), tgt)

        report = grad_check(f, params, h=1e-5)
        assert max(report.values()) < 1e-4, report

    def test_fused_ops_match_the_op_chains_bit_for_bit(self, monkeypatch):
        # edge_pad against the slices and concats the head was built from:
        # same boxes and head gradients bit for bit; the feature gradient,
        # which the two stacks' pads fold back in another association, to
        # rounding.  Nonzero biases move the ReLU cuts off their init.
        rng = np.random.default_rng(17)
        head = heads.CornerHead(32, nn.Draw(rng))
        for conv in head.tl[:-1] + head.br[:-1]:
            conv.b.data = rng.normal(size=conv.b.size).astype(np.float32)
        feat = rng.normal(size=(4, 32, 4, 4)).astype(np.float32)
        tgt = np.tile([[0.2, 0.25, 0.7, 0.8]], (4, 1))

        def run():
            x = Tensor(feat, requires_grad=True)
            with ad.Tape() as tape:
                box = head(x)
                tape.backward(losses.loc_loss(box, tgt))
            grads = {k: p.grad for k, p in head.named_params().items()}
            for p in head.named_params().values():
                p.grad = None
            return box.numpy(), grads, x.grad

        box, grads, gfeat = run()
        with monkeypatch.context() as m:
            m.setattr(ad, "edge_pad", pad_by_concat)
            ref_box, ref_grads, ref_gfeat = run()
        assert np.array_equal(box, ref_box)
        for k in ref_grads:
            assert np.array_equal(grads[k], ref_grads[k]), k
        np.testing.assert_allclose(gfeat, ref_gfeat, rtol=1e-6, atol=1e-7 * np.abs(ref_gfeat).max())

