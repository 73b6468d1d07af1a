import numpy as np
import pytest

from measureboost.regions import Ball, region_from_json, region_to_json

from membership import contains_many


def test_ball_boundary_is_inside():
    B = Ball(np.zeros(2), 1.0)
    assert contains_many(B, np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1e-4]])).tolist() == [True, True, False]


def test_degenerate_ball_contains_center():
    assert contains_many(Ball(np.zeros(3), 0.0), np.zeros((1, 3)))[0]


def test_contains_iff_zero_distance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        B = Ball(rng.normal(size=2), rng.uniform(0, 2))
        x = rng.normal(size=(1, 2)) * 2
        assert contains_many(B, x)[0] == (max(0.0, np.linalg.norm(x - B.center) - B.radius) == 0.0)


def test_region_json_roundtrip():
    B = Ball(np.array([0.5, -1.0]), 2.0)
    back_ball = region_from_json(region_to_json(B))
    np.testing.assert_array_equal(back_ball.center, B.center)
    assert back_ball.radius == B.radius
    # balls are the one region type
    with pytest.raises(ValueError, match="unknown region type 'rect'"):
        region_from_json({"type": "rect", "mins": [0.0], "maxs": [1.0]})


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -0.1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
def test_sq_distances_match_numpy_sum(dim, scale):
    # added one coordinate at a time, the sums keep np.sum's bits, also where
    # squares underflow (1e-160) or come near overflow (1e150)
    rng = np.random.default_rng(dim)
    for pts in (rng.normal(size=(500, dim)), np.round(rng.normal(size=(500, dim)) * 2) / 2):
        p, c = pts * scale, rng.normal(size=dim) * scale
        np.testing.assert_array_equal(Ball(c, 1.0).sq_distances(p), np.sum((p - c) ** 2, axis=1))
