import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.measures import LabeledDataset, Measure
from measureboost.regions import Ball
from measureboost.weak import (
    GridSpec,
    WeakClassifier,
    default_thresholds,
    exhaustive_search,
    kmeans_centers,
    weighted_error,
)


def unit(points):
    return Measure(np.asarray(points, dtype=float))


def random_dataset(seed, n=20, pts=4, d=2):
    rng = np.random.default_rng(seed)
    measures = tuple(Measure(rng.uniform(-1, 2, size=(pts, d))) for _ in range(n))
    return LabeledDataset(measures, rng.integers(0, 2, size=n))


def separable_toy():
    rng = np.random.default_rng(0)
    ms, ys = [], []
    for _ in range(10):
        ms.append(Measure(rng.uniform(0, 1, size=(5, 2))))
        ys.append(1)
        ms.append(Measure(rng.uniform(2, 3, size=(5, 2))))
        ys.append(0)
    return LabeledDataset(tuple(ms), np.array(ys))


def test_predict_strict_threshold():
    h = WeakClassifier(Ball(np.zeros(2), 1.0), 2.0, 1)
    two_in = unit([[0, 0], [0.5, 0]])
    three_in = unit([[0, 0], [0.5, 0], [0, 0.5]])
    # mass == threshold -> 0 in both orientations
    assert h.predict([two_in, three_in]).tolist() == [0, 1]
    flipped = WeakClassifier(Ball(np.zeros(2), 1.0), 2.0, -1)
    assert flipped.predict([two_in, unit([[5, 5]])]).tolist() == [0, 1]


def test_exhaustive_separable_toy():
    data = separable_toy()
    grid = GridSpec.balls([np.array([0.5, 0.5])], [1.0], thresholds=(0.5,))
    h, err = exhaustive_search(data, grid)
    assert err == 0.0
    assert weighted_error(h, data) == 0.0


def test_exhaustive_orientation_symmetry():
    data = random_dataset(5)
    flipped = LabeledDataset(data.measures, 1 - data.labels)
    grid = GridSpec.balls(
        [np.array([0.0, 0.0]), np.array([1.0, 1.0])], [0.5, 1.0, 2.0]
    )
    _, e1 = exhaustive_search(data, grid)
    _, e2 = exhaustive_search(flipped, grid)
    assert e1 == pytest.approx(e2)


def test_exhaustive_matches_bruteforce():
    # returned error equals the min over every (region, threshold, sign) outcome
    data = random_dataset(7)
    centers = [np.array([0.0, 0.0]), np.array([0.5, 1.0]), np.array([1.5, 0.0])]
    radii = [0.5, 1.0, 1.5]
    thresholds = (0.5, 1.5, 2.5)
    grid = GridSpec.balls(centers, radii, thresholds=thresholds)
    h, err = exhaustive_search(data, grid)
    best = min(
        weighted_error(WeakClassifier(A, t, s), data)
        for A in grid.regions
        for t in thresholds
        for s in (1, -1)
    )
    assert err == pytest.approx(best)
    assert weighted_error(h, data) == pytest.approx(err)


def test_exhaustive_reported_error_is_true_error():
    # masses tie with quantile thresholds often; the search must score the
    # same strict rule predict() applies
    for seed in range(5):
        data = random_dataset(seed, n=16, pts=3)
        grid = GridSpec.balls([np.array([0.5, 0.5])], [0.7, 1.2])
        h, err = exhaustive_search(data, grid)
        assert err == pytest.approx(weighted_error(h, data))


def test_exhaustive_weighted():
    data = separable_toy()
    n = len(data)
    w = np.zeros(n)
    w[0] = 1.0  # all weight on one example
    grid = GridSpec.balls([np.array([0.5, 0.5])], [1.0], thresholds=(0.5,))
    _, err = exhaustive_search(data, grid, w=w)
    assert err == 0.0
    with pytest.raises(ValueError):
        exhaustive_search(data, grid, w=np.full(n, 1.0))  # does not sum to 1


def test_default_thresholds_cover_extremes():
    masses = np.array([0.0, 1.0, 3.0, 3.0, 7.0])
    thr = default_thresholds(masses)
    assert thr.min() == 0.0 and thr.max() == 7.0
    assert np.all(np.diff(thr) > 0)


def test_kmeans_deterministic_and_reasonable():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 0.1, size=(30, 2)), rng.normal(5, 0.1, size=(30, 2))])
    c1 = kmeans_centers(pts, 2, seed=3)
    c2 = kmeans_centers(pts, 2, seed=3)
    np.testing.assert_array_equal(c1, c2)
    centers = sorted(c1.tolist())
    assert np.linalg.norm(np.array(centers[0])) < 0.5
    assert np.linalg.norm(np.array(centers[1]) - 5) < 0.5


def test_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans_centers(np.zeros((2, 2)), 3)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_weak_json_roundtrip(seed):
    rng = np.random.default_rng(seed)
    h = WeakClassifier(
        Ball(rng.normal(size=3), float(rng.uniform(0, 2))),
        float(rng.normal()),
        int(rng.choice([-1, 1])),
    )
    back = WeakClassifier.from_json(h.to_json())
    np.testing.assert_array_equal(back.region.center, h.region.center)
    assert (back.region.radius, back.threshold, back.sign) == (
        h.region.radius,
        h.threshold,
        h.sign,
    )
