import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack import boxes, losses
from mixtrack.autodiff import Tensor
from mixtrack.errors import ShapeError

from gradcheck import grad_check


class TestGiouPairwise:
    def test_matches_plain_float_version(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0, 0.4, (20, 4)).astype(np.float64)
        pred[:, 2:] = pred[:, :2] + rng.uniform(0.1, 0.5, (20, 2))
        tgt = rng.uniform(0, 0.4, (20, 4))
        tgt[:, 2:] = tgt[:, :2] + rng.uniform(0.1, 0.5, (20, 2))
        got = losses.giou_pairwise(Tensor(pred), tgt).numpy()
        want = [boxes.giou(p, t) for p, t in zip(pred, tgt)]
        assert np.allclose(got, want, atol=1e-12)

    def test_identical_rows_give_one(self):
        b = np.array([[0.1, 0.2, 0.5, 0.9]])
        assert losses.giou_pairwise(Tensor(b), b).numpy()[0] == 1.0

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            losses.giou_pairwise(
                Tensor(np.zeros((2, 4))), np.zeros((3, 4))
            )

    def test_bad_width(self):
        with pytest.raises(ShapeError):
            losses.giou_pairwise(Tensor(np.zeros((2, 5))), np.zeros((2, 5)))


class TestLocLoss:
    def test_zero_at_target(self):
        b = np.array([0.2, 0.3, 0.6, 0.8])
        assert losses.loc_loss(Tensor(b.copy()), b).item() == 0.0

    def test_hand_case_unclamped(self):
        pred = Tensor(np.array([0.0, 0.0, 1.0, 1.0]))
        tgt = np.array([2.0, 2.0, 3.0, 3.0])
        want = 10.0 + 32.0 / 9.0
        assert abs(losses.loc_loss(pred, tgt).item() - want) < 1e-12

    def test_weights_are_the_papers_5_and_2(self):
        """loc_loss = 5 * l1 + 2 * (1 - giou) on pairs whose two terms vary
        independently, so neither weight can hide in the other."""
        rng = np.random.default_rng(5)
        terms, got = [], []
        for _ in range(6):
            p = rng.uniform(0, 0.5, 4)
            p[2:] = p[:2] + rng.uniform(0.05, 0.5, 2)
            t = rng.uniform(0, 0.5, 4)
            t[2:] = t[:2] + rng.uniform(0.05, 0.5, 2)
            terms.append([np.abs(p - t).mean(), 1.0 - boxes.giou(p, t)])
            got.append(losses.loc_loss(Tensor(p), t).item())
        weights, *_ = np.linalg.lstsq(np.array(terms), np.array(got), rcond=None)
        np.testing.assert_allclose(weights, [5.0, 2.0], rtol=1e-9)

    def test_nonnegative_on_ordered_boxes(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.uniform(0, 0.5, 4)
            p[2:] = p[:2] + rng.uniform(0.05, 0.5, 2)
            t = rng.uniform(0, 0.5, 4)
            t[2:] = t[:2] + rng.uniform(0.05, 0.5, 2)
            assert losses.loc_loss(Tensor(p), t).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pred = Tensor(
            np.array([0.21, 0.18, 0.64, 0.71]), requires_grad=True
        )
        tgt = np.array([0.25, 0.2, 0.6, 0.75])

        def f():
            return losses.loc_loss(pred, tgt)

        report = grad_check(f, {"pred": pred}, h=1e-6)
        assert max(report.values()) < 1e-5, report

    def test_batched_mean_reduction(self):
        # two rows, one perfect: loss is the mean of per-row losses
        pred = Tensor(
            np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]])
        )
        tgt = np.array([[2.0, 2.0, 3.0, 3.0], [2.0, 2.0, 3.0, 3.0]])
        single = 10.0 + 32.0 / 9.0
        assert abs(losses.loc_loss(pred, tgt).item() - single / 2.0) < 1e-12


class TestScoreLoss:
    def test_half_gives_ln2_both_labels(self):
        for y in (0.0, 1.0):
            got = losses.score_loss(Tensor(np.array(0.5)), y).item()
            assert abs(got - np.log(2.0)) < 1e-12

    def test_confident_wrong(self):
        got = losses.score_loss(Tensor(np.array(0.9)), 0.0).item()
        assert abs(got - (-np.log(0.1))) < 1e-12

    def test_confident_right_approaches_zero(self):
        got = losses.score_loss(Tensor(np.array(0.999999)), 1.0).item()
        assert got < 1e-5

    def test_clamp_keeps_loss_finite(self):
        got = losses.score_loss(Tensor(np.array(0.0)), 1.0).item()
        assert np.isfinite(got)
        assert abs(got - (-np.log(1e-7))) < 1e-9

    def test_convex_in_logit(self):
        grid = np.linspace(-4.0, 4.0, 41)
        for y in (0.0, 1.0):
            vals = [
                losses.score_loss(ad.sigmoid(Tensor(np.array(l))), y).item()
                for l in grid
            ]
            second = np.diff(vals, 2)
            assert (second > 0).all()

    def test_gradient_matches_finite_differences(self):
        p = Tensor(np.array(0.3), requires_grad=True)

        def f():
            return losses.score_loss(p, 1.0)

        report = grad_check(f, {"p": p}, h=1e-6)
        assert max(report.values()) < 1e-6, report
