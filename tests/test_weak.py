import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.datagen import orbit
from measureboost.measures import LabeledDataset, Measure
from measureboost.regions import Ball
from measureboost import weak
from measureboost.weak import (
    WeakClassifier,
    ball_grid,
    default_thresholds,
    kmeans_centers,
)
from weak_search import search


def unit(points):
    return Measure(np.asarray(points, dtype=float))


def weighted_error(h, data, w=None):
    """Weighted 0-1 error of h on data; uniform weights when w is None."""
    n = len(data)
    w = np.full(n, 1.0 / n) if w is None else np.asarray(w, dtype=float)
    return float(w[h.predict(data.measures) != data.labels].sum())


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
    grid = ball_grid([np.array([0.5, 0.5])], [1.0])
    h, err, _ = search(data, grid, thresholds=[[0.5]])
    assert err == 0.0
    assert weighted_error(h, data) == 0.0


def test_exhaustive_orientation_symmetry():
    data = random_dataset(5)
    flipped = LabeledDataset(data.measures, 1 - data.labels)
    grid = ball_grid(
        [np.array([0.0, 0.0]), np.array([1.0, 1.0])], [0.5, 1.0, 2.0]
    )
    _, e1, _ = search(data, grid)
    _, e2, _ = search(flipped, grid)
    assert e1 == pytest.approx(e2)


def test_exhaustive_matches_bruteforce():
    # returned error equals the min over every (region, threshold, sign) outcome
    data = random_dataset(7)
    centers = [np.array([0.0, 0.0]), np.array([0.5, 1.0]), np.array([1.5, 0.0])]
    radii = [0.5, 1.0, 1.5]
    thresholds = (0.5, 1.5, 2.5)
    grid = ball_grid(centers, radii)
    h, err, _ = search(data, grid, thresholds=np.tile(thresholds, (len(grid), 1)))
    best = min(
        weighted_error(WeakClassifier(A, t, s), data)
        for A in grid
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
        grid = ball_grid([np.array([0.5, 0.5])], [0.7, 1.2])
        h, err, _ = search(data, grid)
        assert err == pytest.approx(weighted_error(h, data))


def test_exhaustive_weighted():
    data = separable_toy()
    n = len(data)
    w = np.zeros(n)
    w[0] = 1.0  # all weight on one example
    grid = ball_grid([np.array([0.5, 0.5])], [1.0])
    _, err, _ = search(data, grid, w=w, thresholds=[[0.5]])
    assert err == 0.0
    with pytest.raises(ValueError):
        search(data, grid, w=np.full(n, 1.0), thresholds=[[0.5]])  # does not sum to 1
    with pytest.raises(ValueError, match="finite"):
        search(data, grid, w=np.r_[np.nan, np.full(n - 1, 1.0 / (n - 1))], thresholds=[[0.5]])


def _loop_thresholds(m):
    """Reference: one region's thresholds as the per-region loop derived them."""
    qs = np.unique(np.quantile(m, np.linspace(0, 1, 11)))
    return np.unique(np.concatenate([qs, (qs[:-1] + qs[1:]) / 2.0]))


def _direct_search(data, grid, w, masses, thresholds):
    """Reference: every (sign, region, threshold) error as one math.fsum,
    correctly rounded so that no summation order moves it, and the first
    minimum in (sign +1 first, region index, threshold index) order."""
    n = len(data)
    w = np.full(n, 1.0 / n) if w is None else np.asarray(w, dtype=float)
    best = None
    for sign in (1, -1):
        for a, m in enumerate(masses):
            thr = _loop_thresholds(m) if thresholds is None else np.asarray(thresholds[a], dtype=float)
            for t in thr:
                err = math.fsum(w[(sign * (m - t) > 0) != (data.labels == 1)])
                if best is None or err < best[0]:
                    best = (err, WeakClassifier(grid[a], float(t), sign))
    return best[1], best[0]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_exhaustive_search_matches_region_loop(seed):
    # integer masses and given threshold rows (unsorted, with repeats) make
    # ties in error, threshold and region common
    rng = np.random.default_rng(seed)
    n, n_regions = int(rng.integers(1, 30)), int(rng.integers(1, 20))
    if rng.random() < 0.5:
        masses = rng.integers(0, 5, size=(n_regions, n)).astype(float)
    else:
        masses = rng.uniform(0, 3, size=(n_regions, n))
    thresholds = None if rng.random() < 0.5 else rng.integers(0, 5, size=(n_regions, int(rng.integers(1, 6)))) / 1.0
    grid = tuple(Ball(np.zeros(2), float(r + 1)) for r in range(n_regions))
    data = LabeledDataset(tuple(unit([[0, 0]]) for _ in range(n)), rng.integers(0, 2, size=n))
    w = None if rng.random() < 0.5 else rng.dirichlet(np.ones(n))
    want, want_err = _direct_search(data, grid, w, masses, thresholds)
    got, got_err, got_row = search(data, grid, w, masses, thresholds)
    assert got.region is want.region
    assert (got.threshold, got.sign) == (want.threshold, want.sign)
    assert abs(got_err - want_err) <= n * weak._TIE_EPS
    a = next(a for a, region in enumerate(grid) if region is want.region)
    np.testing.assert_array_equal(got_row, masses[a])


def test_tie_rule_does_not_depend_on_rounding():
    # uniform weights 1/120: equal miss counts give errors that differ in the
    # last bit with the summation order; the choice must follow the counts,
    # in C and in Fortran layout alike
    thresholds = np.tile(np.arange(6) + 0.5, (30, 1))
    grid = tuple(Ball(np.zeros(2), float(r + 1)) for r in range(30))
    signs = np.array([1, -1])[:, None, None, None]
    for seed, want in ((3, (1, 13, 3.5)), (52, (1, 9, 3.5)), (92, (-1, 1, 0.5))):
        rng = np.random.default_rng(seed)
        masses = rng.integers(0, 6, size=(30, 120)).astype(float)
        labels = rng.integers(0, 2, 120)
        data = LabeledDataset(tuple(unit([[0, 0]]) for _ in range(120)), labels)
        predicted = signs * (masses[None, :, None, :] - thresholds[None, :, :, None]) > 0
        misses = (predicted != (labels == 1)).sum(axis=3)  # exact, per (sign, region, threshold)
        s, a, t = np.unravel_index(np.argmin(misses), misses.shape)
        assert (1 - 2 * s, a, thresholds[a, t]) == want
        for m in (masses, np.asfortranarray(masses)):
            h, err, row = search(data, grid, masses=m, thresholds=thresholds)
            assert h.region is grid[a] and (h.sign, h.threshold) == (1 - 2 * s, thresholds[a, t])
            assert err == pytest.approx(misses[s, a, t] / 120, abs=1e-12)
            np.testing.assert_array_equal(row, masses[a])


def test_default_thresholds_cover_extremes():
    masses = np.array([[0.0, 1.0, 3.0, 3.0, 7.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
    thr = default_thresholds(masses)
    assert thr.shape == (2, 21)
    assert np.all(thr.min(axis=1) == [0.0, 2.0]) and np.all(thr.max(axis=1) == [7.0, 2.0])
    assert np.all(np.diff(thr, axis=1) >= 0)
    for row, m in zip(thr, masses):  # repeats kept, but the same distinct values
        np.testing.assert_array_equal(np.unique(row), _loop_thresholds(m))


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
    for k in (3, 0, -3):  # k must be between 1 and the number of points
        with pytest.raises(ValueError, match=f"k = {k} must be between 1"):
            kmeans_centers(np.zeros((2, 2)), k)


def _loop_kmeans(points, k, seed):
    """Reference: k-means++ over every chosen center, Lloyd means per center."""
    rng = np.random.default_rng(seed)
    centers = [points[rng.integers(len(points))]]
    for _ in range(k - 1):
        d2 = np.min(np.sum((points[:, None, :] - np.array(centers)[None, :, :]) ** 2, axis=-1), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(points[np.argsort(-d2)[0]])
            continue
        centers.append(points[rng.choice(len(points), p=d2 / total)])
    centers = np.array(centers)
    for _ in range(100):
        assign = np.argmin(np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1), axis=1)
        new = centers.copy()
        for c in range(k):
            if (assign == c).any():
                new[c] = points[assign == c].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - centers, axis=1)))
        centers = new
        if shift < 1e-6:
            break
    return centers


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_kmeans_matches_center_loop(seed, dim):
    # exact in the 2-D and 3-D feature spaces the recipes cluster (in 1-D,
    # mean() sums pairwise and may differ in the last bit); rounded clouds
    # repeat points, so clusters can start on one point and empty out
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    pts = rng.normal(size=(n, dim))
    pts = np.round(pts) if rng.random() < 0.3 else pts * 10 ** rng.uniform(-3, 3)
    k = int(rng.integers(1, min(n, 10) + 1))
    np.testing.assert_array_equal(kmeans_centers(pts, k, seed), _loop_kmeans(pts, k, seed))


def test_kmeans_matches_center_loop_at_recipe_scale():
    # the orbit recipe's clustering input: 3-D feature points (orbit clouds
    # on one tag plane, rotated diagram points on two others), k = 60, with
    # a block of repeated points
    rng = np.random.default_rng(5)
    raw = np.vstack([orbit(rho, 300, s) for s, rho in enumerate((2.5, 3.5, 4.0, 4.1, 4.3) * 2)])
    dgm = rng.exponential(0.3, size=(900, 2))
    pts = np.vstack([
        np.column_stack([raw, np.full(len(raw), 20.0)]),
        np.column_stack([dgm, 10.0 * rng.integers(0, 2, size=len(dgm))]),
    ])
    pts = np.vstack([pts, pts[::7]])
    np.testing.assert_array_equal(kmeans_centers(pts, 60, seed=7), _loop_kmeans(pts, 60, 7))


def test_kmeans_sees_the_summation_order():
    # s**2 is under half an ulp of 1 and 2 * s**2 over it, so the origin's
    # squared distance to (1, s, s) is exactly 1.0 summed as (a0 + a1) + a2,
    # np.sum's order, but 1 + 2**-52 summed as a0 + (a2 + a1).  Seed 11 seeds
    # the centers on (1, s, s) and (-1, 0, 0): in np.sum's order the origin
    # ties at 1.0 and the first minimum puts it with (1, s, s)
    s = 5 * 2.0**-29
    pts = np.array([[1.0, s, s], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.sum(pts[0] ** 2) == 1.0 and pts[0, 0] ** 2 + (pts[0, 2] ** 2 + pts[0, 1] ** 2) == 1 + 2.0**-52
    got = kmeans_centers(pts, 2, seed=11)
    np.testing.assert_array_equal(got, [[0.5, s / 2, s / 2], [-1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(got, _loop_kmeans(pts, 2, 11))


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
@settings(max_examples=80, deadline=None)
def test_kmeans_skip_rule_matches_center_loop(seed, dim):
    # Lloyd skips the rows whose own center is provably nearest; up to 400
    # points let rows skip, and exact ties (half grids, points on circles,
    # repeated points), squares that underflow (scale 1e-160) or come near
    # overflow (1e150) and k up to n must still give plain Lloyd's centers
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    kind = int(rng.integers(4))
    if kind == 0:  # half grid: many points equidistant from two centers
        pts = rng.integers(-4, 5, size=(n, dim)) / 2.0
    elif kind == 1:  # two circles of 12 angles each, in 3-D on two planes
        t, r = 2 * np.pi * rng.integers(0, 12, size=n) / 12, rng.integers(1, 3, size=n)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), rng.integers(0, 2, size=n)][:dim])
    elif kind == 2:  # repeated points
        base = rng.normal(size=(int(rng.integers(1, n + 1)), dim))
        pts = base[rng.integers(0, len(base), size=n)]
    else:
        pts = rng.normal(size=(n, dim))
    pts = pts * [1e-160, 1.0, 1e150][int(rng.integers(3))]
    k = int(rng.integers(1, n + 1)) if rng.random() < 0.25 else int(rng.integers(1, min(n, 12) + 1))
    np.testing.assert_array_equal(kmeans_centers(pts, k, seed), _loop_kmeans(pts, k, seed))


def test_kmeans_coincident_points():
    # every center is the one point; all clusters but the first stay empty
    pts = np.tile([[1.5, -2.0]], (7, 1))
    for k in (1, 3, 7):
        got = kmeans_centers(pts, k, seed=4)
        np.testing.assert_array_equal(got, _loop_kmeans(pts, k, 4))
        np.testing.assert_array_equal(got, np.tile(pts[0], (k, 1)))


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
