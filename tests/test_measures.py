import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.measures import (
    LabeledDataset,
    Measure,
    load_dataset_jsonl,
    mass_matrix,
    save_dataset_jsonl,
)
from measureboost.regions import Ball

from membership import contains_many


def unit_measure(points):
    return Measure(np.asarray(points, dtype=float))


def covering_ball(mu):
    """A ball around the whole support: its mass is the total mass."""
    return Ball(np.zeros(mu.dim), 1.0 + float(np.max(np.linalg.norm(mu.points, axis=1), initial=0.0)))


def test_total_mass_unit_weights():
    mu = unit_measure([[0.0], [1.0], [2.0], [3.0]])
    assert mass_matrix([mu], [covering_ball(mu)])[0, 0] == 4.0


def test_total_mass_empty():
    mu = Measure(np.zeros((0, 2)))
    assert mass_matrix([mu], [covering_ball(mu), Ball(np.zeros(2), 1e9)]).tolist() == [[0.0], [0.0]]


def test_total_mass_fractional():
    mu = Measure(np.array([[0.0], [-2.0]]), np.array([0.5, 0.25]))
    assert mass_matrix([mu], [covering_ball(mu)])[0, 0] == 0.75


def test_mass_in_region_counts():
    mu = unit_measure([[0, 0], [0.5, 0], [0, 0.5], [5, 5]])
    ball = Ball(np.zeros(2), 1.0)
    assert mass_matrix([mu], [ball])[0, 0] == 3.0
    assert contains_many(ball, mu.points).tolist() == [True, True, True, False]


def test_mass_in_region_full_and_empty():
    mu = unit_measure([[0, 0], [1, 1]])
    balls = [Ball(np.array([0.5, 0.5]), 10.0), Ball(np.array([9.0, 9.0]), 0.5)]
    assert mass_matrix([mu], balls).tolist() == [[2.0], [0.0]]
    assert [contains_many(b, mu.points).tolist() for b in balls] == [[True, True], [False, False]]


def test_mass_in_region_boundary_closed():
    mu = Measure(np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]), np.array([1.0, 0.5, 0.25]))
    ball = Ball(np.zeros(2), 1.0)  # all three points lie exactly on its boundary
    assert contains_many(ball, mu.points).all()
    assert mass_matrix([mu], [ball])[0, 0] == 1.75


def test_mass_in_region_dim_mismatch():
    mu = unit_measure([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        mass_matrix([mu], [Ball(np.zeros(2), 1.0)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        contains_many(Ball(np.zeros(2), 1.0), mu.points)


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 2.0), st.floats(0.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_ball_mass_monotone_in_radius(seed, r, extra):
    rng = np.random.default_rng(seed)
    mu = Measure(rng.normal(size=(6, 2)), rng.uniform(0, 1, size=6))
    c = rng.normal(size=2)
    small, large = mass_matrix([mu], [Ball(c, r), Ball(c, r + extra)])[:, 0]
    assert small <= large
    assert np.all(contains_many(Ball(c, r), mu.points) <= contains_many(Ball(c, r + extra), mu.points))


def test_mass_equals_indicator_integral():
    rng = np.random.default_rng(3)
    mu = Measure(rng.normal(size=(8, 2)), rng.uniform(0, 1, size=8))
    ind = np.array([1.0 if np.linalg.norm(x) <= 1.2 else 0.0 for x in mu.points])
    assert mass_matrix([mu], [Ball(np.zeros(2), 1.2)])[0, 0] == mu.weights @ ind


def test_measure_rejects_nonfinite_points():
    with pytest.raises(ValueError):
        Measure(np.array([[np.nan, 0.0]]))


def test_measure_rejects_negative_weights():
    with pytest.raises(ValueError):
        Measure(np.zeros((1, 2)), np.array([-1.0]))


def test_measure_is_immutable():
    mu = Measure(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        mu.points[0, 0] = 1.0


def test_dataset_roundtrip_jsonl(tmp_path):
    rng = np.random.default_rng(1)
    measures = (
        Measure(rng.normal(size=(3, 2))),
        Measure(rng.normal(size=(2, 2)), np.array([0.5, 1.5])),
    )
    data = LabeledDataset(measures, np.array([0, 1]))
    path = tmp_path / "data.jsonl"
    save_dataset_jsonl(data, path)
    back = load_dataset_jsonl(path)
    assert list(back.labels) == [0, 1]
    for a, b in zip(data.measures, back.measures):
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)
    # unit weights are omitted on disk
    rec = json.loads(path.read_text().splitlines()[0])
    assert "weights" not in rec


def test_dataset_label_set_sorted():
    measures = tuple(Measure(np.zeros((1, 2))) for _ in range(3))
    data = LabeledDataset(measures, np.array([2, 0, 2]))
    assert data.label_set == [0, 2]


# --- mass_matrix against a per-point reference -----------------------------
#
# Coordinates and radii are multiples of 1/4, so squared distances are exact
# and many support points sit exactly on a ball boundary.

_quarter = st.integers(-8, 8).map(lambda k: k / 4)


def _reference_masses(measures, regions):
    out = np.zeros((len(regions), len(measures)))
    for a, ball in enumerate(regions):
        c = ball.center.tolist()
        for i, mu in enumerate(measures):
            for x, w in zip(mu.points.tolist(), mu.weights.tolist()):
                inside = sum((xj - cj) ** 2 for xj, cj in zip(x, c)) <= ball.radius**2
                out[a, i] += w if inside else 0.0
    return out


@st.composite
def _masses_case(draw, unit_weights):
    d = draw(st.integers(1, 3))
    point = st.lists(_quarter, min_size=d, max_size=d)
    measures = []
    for _ in range(draw(st.integers(0, 5))):
        pts = np.array(draw(st.lists(point, max_size=6)), dtype=float).reshape(-1, d)
        weights = None if unit_weights else draw(
            st.lists(st.floats(0.0, 10.0), min_size=len(pts), max_size=len(pts))
        )
        measures.append(Measure(pts, weights))
    regions = [Ball(np.array(draw(point)), draw(st.integers(0, 12)) / 4) for _ in range(draw(st.integers(1, 4)))]
    return measures, regions


@given(_masses_case(unit_weights=True))
@settings(max_examples=150, deadline=None)
def test_mass_matrix_matches_reference_unit_weights(case):
    measures, regions = case
    got = mass_matrix(measures, regions)
    assert got.shape == (len(regions), len(measures))
    np.testing.assert_array_equal(got, _reference_masses(measures, regions))


@given(_masses_case(unit_weights=False))
@settings(max_examples=150, deadline=None)
def test_mass_matrix_matches_reference_weighted(case):
    measures, regions = case
    np.testing.assert_allclose(mass_matrix(measures, regions), _reference_masses(measures, regions), rtol=1e-12, atol=1e-12)


def _region_loop_masses(measures, regions):
    """Reference: one `contains_many` test and one `np.bincount` per region."""
    masses = np.zeros((len(regions), len(measures)))
    filled = [mu for mu in measures if len(mu)]
    if filled:
        points = np.vstack([mu.points for mu in filled])
        weights = np.concatenate([mu.weights for mu in filled])
        owner = np.repeat(np.arange(len(measures)), [len(mu) for mu in measures])
        for a, region in enumerate(regions):
            inside = contains_many(region, points)
            masses[a] = np.bincount(owner[inside], weights=weights[inside], minlength=len(measures))
    return masses


@st.composite
def _grid_case(draw):
    # ball-grid region lists: runs of radii on one center, centers that come
    # back after other regions, sometimes a ball of the wrong dimension; on quarter-grid points and radii, distances and
    # squared radii are exact, so many points sit exactly on a radius
    d = draw(st.integers(1, 3))
    point = st.lists(_quarter, min_size=d, max_size=d)
    measures = []
    for _ in range(draw(st.integers(0, 5))):
        pts = np.array(draw(st.lists(point, max_size=8)), dtype=float).reshape(-1, d)
        weights = draw(st.none() | st.lists(st.floats(0.0, 10.0), min_size=len(pts), max_size=len(pts)))
        measures.append(Measure(pts, weights))
    centers = draw(st.lists(point, min_size=1, max_size=3))
    regions = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.sampled_from(["balls", "balls", "mismatch"])) == "balls":
            c = np.array(draw(st.sampled_from(centers)))
            regions += [Ball(c, k / 4) for k in draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))]
        else:
            regions.append(Ball(np.zeros(d + 1), 1.0))
    return measures, regions


@given(_grid_case())
@settings(max_examples=200, deadline=None)
def test_mass_matrix_per_center_matches_region_loop(case):
    measures, regions = case
    try:
        want = _region_loop_masses(measures, regions)
    except ValueError:  # a ball of the wrong dimension, with points to test
        with pytest.raises(ValueError):
            mass_matrix(measures, regions)
        return
    np.testing.assert_array_equal(mass_matrix(measures, regions), want)


def test_mass_matrix_boundary_full_and_empty():
    measures = [
        unit_measure([[1.0, 0.0], [0.0, -1.0], [2.0, 2.0]]),  # two on the unit circle
        Measure(np.zeros((0, 2))),
        Measure(np.array([[5.0, 0.0], [0.0, 0.0]]), np.array([0.5, 2.0])),
    ]
    regions = [Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 5.0)]  # (5, 0) on the larger circle
    np.testing.assert_array_equal(mass_matrix(measures, regions), [[2.0, 0.0, 2.0], [3.0, 0.0, 2.5]])
    assert mass_matrix([], regions).shape == (2, 0)
    assert mass_matrix(measures, []).shape == (0, 3)
