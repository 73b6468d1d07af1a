import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.measures import (
    LabeledDataset,
    Measure,
    integrate,
    load_dataset_jsonl,
    mass_in_region,
    mass_matrix,
    mbar_p,
    save_dataset_jsonl,
    total_mass,
)
from measureboost.regions import AxisRect, Ball


def unit_measure(points):
    return Measure(np.asarray(points, dtype=float))


def test_total_mass_unit_weights():
    mu = unit_measure([[0.0], [1.0], [2.0], [3.0]])
    assert total_mass(mu) == 4.0


def test_total_mass_empty():
    assert total_mass(Measure(np.zeros((0, 2)))) == 0.0


def test_total_mass_fractional():
    mu = Measure(np.zeros((2, 1)), np.array([0.5, 0.25]))
    assert total_mass(mu) == 0.75


def test_integrate_constant_is_total_mass():
    mu = Measure(np.random.default_rng(0).normal(size=(5, 3)), np.array([1, 2, 3, 4, 5.0]))
    assert integrate(mu, lambda x: 1.0) == total_mass(mu)
    assert integrate(mu, lambda x: 0.0) == 0.0


def test_integrate_identity_1d():
    mu = unit_measure([[0.0], [2.0]])
    assert integrate(mu, lambda x: x[0]) == 2.0


def test_integrate_rejects_nonfinite():
    mu = unit_measure([[0.0]])
    with pytest.raises(ValueError):
        integrate(mu, lambda x: float("nan"))


def test_mass_in_region_counts():
    mu = unit_measure([[0, 0], [0.5, 0], [0, 0.5], [5, 5]])
    ball = Ball(np.zeros(2), 1.0)
    assert mass_in_region(mu, ball) == 3.0


def test_mass_in_region_full_and_empty():
    mu = unit_measure([[0, 0], [1, 1]])
    assert mass_in_region(mu, Ball(np.array([0.5, 0.5]), 10.0)) == total_mass(mu)
    assert mass_in_region(mu, Ball(np.array([9.0, 9.0]), 0.5)) == 0.0


def test_mass_in_region_boundary_closed():
    mu = unit_measure([[1.0, 0.0]])
    assert mass_in_region(mu, Ball(np.zeros(2), 1.0)) == 1.0
    assert mass_in_region(mu, AxisRect(np.zeros(2), np.ones(2))) == 1.0


def test_mass_in_region_dim_mismatch():
    mu = unit_measure([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        mass_in_region(mu, Ball(np.zeros(2), 1.0))


def make_dataset(masses):
    measures = tuple(Measure(np.zeros((1, 2)), np.array([m])) for m in masses)
    return LabeledDataset(measures, np.zeros(len(masses), dtype=int))


def test_mbar_p_constant():
    data = make_dataset([2.5, 2.5, 2.5])
    for p in (1, 2, 7.5):
        assert mbar_p(data, p) == pytest.approx(2.5)


def test_mbar_p_arithmetic():
    data = make_dataset([3.0, 4.0])
    assert mbar_p(data, 2) == pytest.approx(np.sqrt(12.5))


def test_mbar_p_singleton():
    assert mbar_p(make_dataset([1.0]), 1) == 1.0


@given(st.lists(st.floats(0.01, 10), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_mbar_p_monotone_in_p(masses):
    data = make_dataset(masses)
    vals = [mbar_p(data, p) for p in (1, 2, 4, 8)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-9


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_integrate_linearity(seed):
    rng = np.random.default_rng(seed)
    mu = Measure(rng.normal(size=(4, 2)), rng.uniform(0, 2, size=4))
    f = lambda x: x[0] ** 2
    g = lambda x: np.sin(x[1])
    a, b = rng.normal(size=2)
    lhs = integrate(mu, lambda x: a * f(x) + b * g(x))
    rhs = a * integrate(mu, f) + b * integrate(mu, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 2.0), st.floats(0.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_ball_mass_monotone_in_radius(seed, r, extra):
    rng = np.random.default_rng(seed)
    mu = Measure(rng.normal(size=(6, 2)), rng.uniform(0, 1, size=6))
    c = rng.normal(size=2)
    assert mass_in_region(mu, Ball(c, r)) <= mass_in_region(mu, Ball(c, r + extra))


def test_mass_equals_indicator_integral():
    rng = np.random.default_rng(3)
    mu = Measure(rng.normal(size=(8, 2)), rng.uniform(0, 1, size=8))
    A = Ball(np.zeros(2), 1.2)
    ind = lambda x: 1.0 if np.linalg.norm(x) <= 1.2 else 0.0
    assert mass_in_region(mu, A) == integrate(mu, ind)


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
# and many support points sit exactly on a ball boundary or a box face.

_quarter = st.integers(-8, 8).map(lambda k: k / 4)


def _reference_masses(measures, regions):
    out = np.zeros((len(regions), len(measures)))
    for a, region in enumerate(regions):
        for i, mu in enumerate(measures):
            for x, w in zip(mu.points.tolist(), mu.weights.tolist()):
                if isinstance(region, Ball):
                    c = region.center.tolist()
                    inside = sum((xj - cj) ** 2 for xj, cj in zip(x, c)) <= region.radius**2
                else:
                    inside = all(lo <= xj <= hi for xj, lo, hi in zip(x, region.mins, region.maxs))
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
    regions = []
    for _ in range(draw(st.integers(1, 4))):
        lo = np.array(draw(point))
        if draw(st.booleans()):
            regions.append(Ball(lo, draw(st.integers(0, 12)) / 4))
        else:
            ext = draw(st.lists(st.one_of(st.integers(0, 8).map(lambda k: k / 4), st.just(np.inf)), min_size=d, max_size=d))
            regions.append(AxisRect(lo, lo + np.array(ext)))
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


def test_mass_matrix_boundary_empty_and_half_open():
    measures = [
        unit_measure([[1.0, 0.0], [0.0, -1.0], [2.0, 2.0]]),  # two on the unit circle
        Measure(np.zeros((0, 2))),
        Measure(np.array([[5.0, 0.0], [0.0, 0.0]]), np.array([0.5, 2.0])),
    ]
    regions = [Ball(np.zeros(2), 1.0), AxisRect(np.zeros(2), np.array([np.inf, np.inf]))]
    np.testing.assert_array_equal(mass_matrix(measures, regions), [[2.0, 0.0, 2.0], [2.0, 0.0, 2.5]])
    assert mass_matrix([], regions).shape == (2, 0)
    assert mass_in_region(measures[0], regions[0]) == 2.0
