import numpy as np
import pytest

from measureboost.regions import AxisRect, Ball, contains, region_from_json, region_to_json


def test_ball_boundary_is_inside():
    assert contains(Ball(np.zeros(2), 1.0), np.array([1.0, 0.0]))


def test_rect_outside():
    assert not contains(AxisRect(np.zeros(2), np.ones(2)), np.array([2.0, 0.0]))


def test_degenerate_ball_contains_center():
    assert contains(Ball(np.zeros(3), 0.0), np.zeros(3))


def test_rect_infinite_max():
    A = AxisRect(np.array([0.0, 0.0]), np.array([1.0, np.inf]))
    assert contains(A, np.array([0.5, 1e9]))
    assert not contains(A, np.array([1.5, 0.0]))


def test_contains_iff_zero_distance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        B = Ball(rng.normal(size=2), rng.uniform(0, 2))
        x = rng.normal(size=2) * 2
        assert contains(B, x) == (max(0.0, np.linalg.norm(x - B.center) - B.radius) == 0.0)


def test_region_json_roundtrip():
    B = Ball(np.array([0.5, -1.0]), 2.0)
    back_ball = region_from_json(region_to_json(B))
    np.testing.assert_array_equal(back_ball.center, B.center)
    assert back_ball.radius == B.radius
    R = AxisRect(np.array([0.0, 1.0]), np.array([2.0, np.inf]))
    back = region_from_json(region_to_json(R))
    np.testing.assert_array_equal(back.mins, R.mins)
    np.testing.assert_array_equal(back.maxs, R.maxs)
    # infinite maxs serialize as the string "inf"
    assert region_to_json(R)["maxs"][1] == "inf"


def test_rect_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        AxisRect(np.array([1.0]), np.array([0.0]))


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -0.1)
