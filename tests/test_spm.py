import numpy as np
import pytest

from mixtrack import autodiff as ad
from mixtrack import losses, spm
from mixtrack import nn
from mixtrack.autodiff import Tensor
from mixtrack.errors import ShapeError

from gradcheck import grad_check


class TestRoiTokens:
    def test_full_box_identity_when_grid_matches(self):
        rng = np.random.default_rng(0)
        feat = rng.normal(size=(3, 4, 4))
        tok = spm.roi_tokens(Tensor(feat), (0.0, 0.0, 1.0, 1.0))
        want = feat.transpose(1, 2, 0).reshape(16, 3)
        assert np.allclose(tok.numpy(), want, atol=1e-12)

    def test_constant_map_gives_constant_tokens(self):
        feat = Tensor(np.full((2, 6, 6), 3.25))
        tok = spm.roi_tokens(feat, (0.13, 0.4, 0.77, 0.9)).numpy()
        assert np.allclose(tok, 3.25, atol=1e-12)

    def test_half_map_ramp_matches_bilinear_oracle(self):
        # f(i, j) = j: bilinear samples reproduce the x coordinate itself
        w = 8
        ramp = np.tile(np.arange(w, dtype=np.float64), (w, 1))[None]
        tok = spm.roi_tokens(Tensor(ramp), (0.0, 0.0, 0.5, 1.0))
        got = tok.numpy().reshape(4, 4)
        want_cols = np.array([c * (0.5 * 7) / 3 for c in range(4)])
        assert np.allclose(got, np.tile(want_cols, (4, 1)), atol=1e-9)

    def test_vertical_ramp(self):
        h = 5
        ramp = np.tile(np.arange(h, dtype=np.float64)[:, None], (1, h))[None]
        tok = spm.roi_tokens(Tensor(ramp), (0.0, 0.25, 1.0, 0.75))
        got = tok.numpy().reshape(4, 4)
        want_rows = np.array([1.0 + r * (0.5 * 4) / 3 for r in range(4)])
        assert np.allclose(got, np.tile(want_rows[:, None], (1, 4)), atol=1e-9)

    def test_zero_area_box_snaps_to_nearest_cell(self):
        rng = np.random.default_rng(1)
        feat = rng.normal(size=(4, 8, 8))
        tok = spm.roi_tokens(Tensor(feat), (0.37, 0.61, 0.37, 0.61))
        want = feat[:, round(0.61 * 7), round(0.37 * 7)]
        assert np.allclose(tok.numpy(), np.tile(want, (16, 1)), atol=1e-12)

    def test_box_is_clamped_into_unit_range(self):
        rng = np.random.default_rng(2)
        feat = rng.normal(size=(2, 5, 5))
        a = spm.roi_tokens(Tensor(feat), (-0.5, -0.2, 1.5, 1.1))
        b = spm.roi_tokens(Tensor(feat), (0.0, 0.0, 1.0, 1.0))
        assert np.allclose(a.numpy(), b.numpy(), atol=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            spm.roi_tokens(Tensor(np.zeros((4, 4))), (0, 0, 1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_box_raises_shape_error(self, bad):
        feat = Tensor(np.zeros((1, 4, 4)))
        with pytest.raises(ShapeError, match="finite"):
            spm.roi_tokens(feat, (0.1, bad, 0.8, 0.9))

    def test_gradient_flows_to_features(self):
        rng = np.random.default_rng(3)
        feat = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        with ad.Tape() as tape:
            tok = spm.roi_tokens(feat, (0.1, 0.2, 0.8, 0.9))
            tape.backward(ad.sum_(ad.mul(tok, tok)))
        assert feat.grad is not None
        assert np.abs(feat.grad).sum() > 0


def make_spm(dim=8, seed=0, per_template=4):
    return spm.ScorePredictor(dim, per_template, nn.Draw(np.random.default_rng(seed)))


def make_inputs(dim=8, seed=10, tokens=6):
    rng = np.random.default_rng(seed)
    feat = Tensor(rng.normal(size=(dim, 4, 4)).astype(np.float32))
    tmpl = Tensor(rng.normal(size=(tokens, dim)).astype(np.float32))
    return feat, tmpl


class TestScorePredictor:
    @pytest.mark.parametrize("seed", range(100))
    def test_output_strictly_inside_unit_interval(self, seed):
        model = make_spm(seed=seed % 7, per_template=5)
        rng = np.random.default_rng(seed)
        feat = Tensor(rng.normal(size=(8, 4, 4)).astype(np.float32))
        tmpl = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        box = tuple(np.sort(rng.uniform(0, 1, 2))) + (0.0, 0.0)
        box = (box[0], 0.1, box[1], 0.9)
        s = model(feat, box, tmpl).item()
        assert 0.0 < s < 1.0

    def test_zero_final_layer_gives_exactly_half(self):
        model = make_spm()
        model.out.w.data[:] = 0.0
        model.out.b.data[:] = 0.0
        feat, tmpl = make_inputs()
        assert model(feat, (0.2, 0.2, 0.8, 0.8), tmpl).item() == 0.5

    def test_deterministic(self):
        model = make_spm()
        feat, tmpl = make_inputs()
        a = model(feat, (0.1, 0.3, 0.6, 0.9), tmpl).item()
        b = model(feat, (0.1, 0.3, 0.6, 0.9), tmpl).item()
        assert a == b

    def test_online_template_rows_cannot_move_score(self):
        model = make_spm()
        feat, tmpl = make_inputs(tokens=8)
        full = tmpl.numpy().copy()
        s1 = model(feat, (0.2, 0.2, 0.7, 0.7), Tensor(full)).item()
        full[4:] = 123.0
        s2 = model(feat, (0.2, 0.2, 0.7, 0.7), Tensor(full)).item()
        assert s1 == s2

    def test_initial_rows_do_move_score(self):
        # in float64: at the small initial weights the move is below float32
        # rounding of a score near 0.5
        model = make_spm()
        for p in model.named_params().values():
            p.data = p.data.astype(np.float64)
        feat, tmpl = make_inputs(tokens=8)
        feat = Tensor(feat.numpy().astype(np.float64))
        full = tmpl.numpy().astype(np.float64)
        s1 = model(feat, (0.2, 0.2, 0.7, 0.7), Tensor(full)).item()
        full[0] += 5.0
        s2 = model(feat, (0.2, 0.2, 0.7, 0.7), Tensor(full)).item()
        assert s1 != s2

    def test_wrong_template_width(self):
        model = make_spm()
        feat, _ = make_inputs()
        with pytest.raises(ShapeError):
            model(feat, (0, 0, 1, 1), Tensor(np.zeros((4, 5), dtype=np.float32)))

    def test_score_loss_gradients_reach_all_params(self):
        model = make_spm(dim=6)
        params = model.named_params()
        for p in params.values():
            p.data = p.data.astype(np.float64)
        rng = np.random.default_rng(20)
        feat = Tensor(rng.normal(size=(6, 3, 3)))
        tmpl = Tensor(rng.normal(size=(4, 6)))
        box = (0.25, 0.2, 0.75, 0.9)

        def f():
            return losses.score_loss(model(feat, box, tmpl), 1.0)

        report = grad_check(f, params, h=1e-5)
        assert max(report.values()) < 1e-4, report
        assert "token" in report
