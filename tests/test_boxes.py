import numpy as np
import pytest

from mixtrack import boxes


def random_box(rng):
    x0, y0 = rng.uniform(0, 0.8, 2)
    w, h = rng.uniform(0.05, 0.2, 2)
    return (x0, y0, x0 + w, y0 + h)


class TestConversions:
    def test_xywh_to_corners(self):
        assert boxes.to_corners((10.5, 20.0, 30.0, 40.0)) == (10.5, 20.0, 40.5, 60.0)

    def test_xywh_round_trip(self):
        b = (1.0, 2.0, 5.0, 9.0)
        assert boxes.to_corners(boxes.to_xywh(b)) == b

    def test_clamp_box_orders_and_clips(self):
        assert boxes.clamp_box((-0.2, 0.5, 1.4, 0.1), 1.0, 1.0) == (0.0, 0.1, 1.0, 0.5)

    def test_clamp_box_pixel_bounds(self):
        assert boxes.clamp_box((5.0, -3.0, 700.0, 90.0), 640.0, 480.0) == (
            5.0,
            0.0,
            640.0,
            90.0,
        )


class TestIou:
    def test_identical(self):
        assert boxes.iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert boxes.iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_hand_case(self):
        assert boxes.iou((0, 0, 2, 2), (1, 1, 3, 3)) == 1.0 / 7.0

    def test_zero_area_union(self):
        assert boxes.iou((3, 3, 3, 3), (3, 3, 3, 3)) == 0.0


class TestGiou:
    def test_identical(self):
        assert boxes.giou((0, 0, 2, 3), (0, 0, 2, 3)) == 1.0

    def test_hand_case(self):
        assert boxes.giou((0, 0, 1, 1), (2, 2, 3, 3)) == -7.0 / 9.0

    def test_degenerate_enclosing_identical(self):
        assert boxes.giou((1, 1, 1, 1), (1, 1, 1, 1)) == 1.0

    def test_degenerate_enclosing_different(self):
        assert boxes.giou((0, 0, 0, 1), (0, 1, 0, 1)) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert boxes.giou(a, b) == boxes.giou(b, a)

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            assert boxes.giou(a, b) <= boxes.iou(a, b) + 1e-12

    def test_lower_bound(self):
        rng = np.random.default_rng(3)
        vals = [
            boxes.giou(random_box(rng), random_box(rng)) for _ in range(500)
        ]
        assert min(vals) > -1.0
        assert max(vals) <= 1.0


class TestCenterDistance:
    def test_hand_value(self):
        a = (0, 0, 2, 2)  # center (1, 1)
        b = (3, 4, 5, 6)  # center (4, 5)
        assert boxes.center_distance(a, b) == 5.0

    def test_zero_for_same_center(self):
        assert boxes.center_distance((0, 0, 4, 4), (1, 1, 3, 3)) == 0.0
