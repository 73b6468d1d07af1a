import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.limits import (
    Rectangle,
    _ball_volume,
    _one_pair,
    feature_matrix,
    mu_k_montecarlo,
    r_n_schedule,
    rademacher_estimate,
    xi_count,
)
from measureboost.measures import Measure
from measureboost.ph import betti_oracle, cech_filtration
from measureboost.ph.complexes import _ROWS, _dedup_points
from measureboost.ph.diagrams import PersistenceDiagram
from measureboost.regions import Ball


def test_rectangle_validation():
    Rectangle(0.1, 0.2, 0.3, 0.4)
    Rectangle(0.1, 0.1, 0.1, 0.1)  # degenerate but legal
    with pytest.raises(ValueError):
        Rectangle(0.0, 0.2, 0.3, 0.4)  # s must be > 0
    with pytest.raises(ValueError):
        Rectangle(0.3, 0.2, 0.4, 0.5)  # s <= t violated
    with pytest.raises(ValueError):
        Rectangle(0.1, 0.3, 0.2, 0.5)  # t <= u violated


def test_rectangle_count_half_open():
    dg = PersistenceDiagram(
        1,
        np.array(
            [
                [0.1, 0.5],  # inside
                [0.2, 0.4],  # t boundary: birth == t excluded
                [0.1, 0.6],  # v boundary: death == v excluded
                [0.1, 0.4],  # u boundary: death == u included
                [0.05, 0.5],  # birth below s
            ]
        ),
    )
    rect = Rectangle(0.1, 0.2, 0.4, 0.6)
    assert rect.count_in(dg) == 2
    assert rect.count_in(PersistenceDiagram(1, np.empty((0, 2)))) == 0


def test_degenerate_rectangles_count_zero():
    dg = PersistenceDiagram(1, np.array([[0.2, 0.5]]))
    assert Rectangle(0.2, 0.2, 0.4, 0.6).count_in(dg) == 0  # s == t empty
    assert Rectangle(0.1, 0.3, 0.5, 0.5).count_in(dg) == 0  # u == v empty


def test_rectangle_counts_are_additive_under_splits():
    rng = np.random.default_rng(0)
    births = rng.uniform(0.1, 0.5, size=60)
    deaths = births + rng.uniform(0.0, 0.5, size=60)
    dg = PersistenceDiagram(1, np.column_stack([births, deaths]))
    whole = Rectangle(0.1, 0.5, 0.5, 1.0)
    left = Rectangle(0.1, 0.3, 0.5, 1.0)
    right = Rectangle(0.3, 0.5, 0.5, 1.0)
    assert whole.count_in(dg) == left.count_in(dg) + right.count_in(dg)
    low = Rectangle(0.1, 0.5, 0.5, 0.7)
    high = Rectangle(0.1, 0.5, 0.7, 1.0)
    assert whole.count_in(dg) == low.count_in(dg) + high.count_in(dg)


def test_r_n_schedule_examples():
    # first branch: k = 0, d = 4 -> exponent 2/6
    assert r_n_schedule(64, 0, 4) == pytest.approx(64 ** (-1 / 3))
    # second branch: k = 0, d = 2 -> exponent 4/6 = 2/3
    assert r_n_schedule(100, 0, 2) == pytest.approx(100 ** (-2 / 3))
    assert r_n_schedule(100, 0, 2) == pytest.approx(0.0464158883, abs=1e-9)
    # second branch: k = 1, d = 2 -> exponent 5/8
    assert r_n_schedule(256, 1, 2) == pytest.approx(256 ** (-5 / 8))


def test_r_n_schedule_decreasing_in_n():
    for k, d in [(0, 2), (1, 2), (0, 5), (2, 3)]:
        vals = [r_n_schedule(n, k, d) for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)


def test_r_n_schedule_validation():
    with pytest.raises(ValueError):
        r_n_schedule(1, 0, 2)
    with pytest.raises(ValueError):
        r_n_schedule(10, -1, 2)
    with pytest.raises(ValueError):
        r_n_schedule(10, 0, 0)


def test_xi_count_normalization_arithmetic():
    # one pair in the rectangle, n = 10, r_n = 0.1, k = 0, d = 1:
    # normalization n^2 * r_n^1 = 10, so xi = 1/10
    dg = PersistenceDiagram(0, np.array([[0.15, 0.5]]))
    rect = Rectangle(0.1, 0.2, 0.4, 0.6)
    assert xi_count(dg, rect, n=10, r_n=0.1, k=0, d=1) == pytest.approx(0.1)


def test_xi_count_checks_dimension():
    dg = PersistenceDiagram(1, np.array([[0.15, 0.5]]))
    rect = Rectangle(0.1, 0.2, 0.4, 0.6)
    with pytest.raises(ValueError):
        xi_count(dg, rect, n=10, r_n=0.1, k=0, d=1)


def test_mu0_is_identically_zero():
    # for k = 0 the one pair of two points is born at 0, below s > 0
    rect = Rectangle(0.1, 0.3, 0.5, 0.9)
    for seed in range(3):
        est, err = mu_k_montecarlo(1.0, k=0, d=2, rect=rect, n_mc=400, seed=seed)
        assert est == 0.0
        assert err == 0.0


def _mu_k_by_betti_oracle(density_moment, k, d, rect, n_mc, seed):
    # the same draws as mu_k_montecarlo, each sample scored by the
    # inclusion-exclusion of four brute-force Betti-k indicators
    rng = np.random.default_rng(seed)
    radius = (k + 2) * rect.v
    samples = np.empty(n_mc)
    for i in range(n_mc):
        g = rng.standard_normal((k + 1, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        y = g * (radius * rng.uniform(size=(k + 1, 1)) ** (1.0 / d))
        fc = cech_filtration(np.vstack([np.zeros((1, d)), y]), max_dim=k + 1, max_value=float("inf"))
        hs = {r: int(betti_oracle(fc, r, k) == 1) for r in (rect.s, rect.t, rect.u, rect.v)}
        samples[i] = hs[rect.t] * hs[rect.u] - hs[rect.t] * hs[rect.v] - hs[rect.s] * hs[rect.u] + hs[rect.s] * hs[rect.v]
    factor = _ball_volume(d, radius) ** (k + 1) * density_moment / math.factorial(k + 2)
    return float(samples.mean()) * factor, float(samples.std(ddof=1) / math.sqrt(n_mc)) * factor


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_mu_k_equals_the_betti_oracle_estimate(k, d):
    # the criterion-8 degree-1 rectangles at seeds 0-2; in degree 1 at least
    # one of them sees a sample inside, so the comparison is not between zeros
    # only.  In degree 2 a pair lives only while the tetrahedron's radius
    # exceeds its largest triangle's, by at most about 6% (the regular
    # tetrahedron), and in the plane not at all, as the four points' miniball
    # is one of their triangles'.  A sample inside needs that radius at most v
    # while the points are drawn within 4v: in d = 3, seed 696 is the only one
    # of seeds 0-2999 whose 300 samples put one inside (0.05, 0.95, 0.95, 1).
    cases = list(enumerate([(0.05, 0.7, 0.7, 0.85), (0.05, 0.8, 0.8, 1.0), (0.3, 0.7, 0.7, 1.0)]))
    if k == 2:
        cases.append((696, (0.05, 0.95, 0.95, 1.0)))
    estimates = []
    for seed, vals in cases:
        rect = Rectangle(*vals)
        expected = _mu_k_by_betti_oracle(1.0, k, d, rect, 300, seed)
        assert mu_k_montecarlo(1.0, k, d, rect, 300, seed) == expected
        estimates.append(expected[0])
    assert (max(estimates) > 0) == (k == 1 or (k, d) == (2, 3))


@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_one_pair_matches_the_builders_complex_of_each_sample(k, d, n_samples, data):
    # the stack is built with the builder's own loop, so each sample's pair
    # has the bits of the builder's complex of that sample alone; coordinates
    # on halves make collinear and cocircular samples
    coord = st.one_of(st.floats(-1, 1), st.integers(-2, 2).map(lambda i: i / 2))
    size = n_samples * (k + 2) * d
    stack = np.array(data.draw(st.lists(coord, min_size=size, max_size=size))).reshape(n_samples, k + 2, d)
    birth, death = _one_pair(stack)
    for sample, b, t in zip(stack, birth.tolist(), death.tolist()):
        if _dedup_points(sample) is not sample:
            continue  # the builder jitters a repeated point
        fc = cech_filtration(sample, k + 1, np.inf)
        assert (b, t) == (fc.values[k].max(), fc.values[k + 1][0])


def test_one_pair_of_a_stack_past_one_block():
    # _ROWS samples make one build and the last sample a second one; the
    # first block's 4-vertex rows are past int64 codes, the second's are not
    stack = np.random.default_rng(0).uniform(-1, 1, size=(_ROWS + 1, 4, 3))
    birth, death = _one_pair(stack)
    assert birth.shape == death.shape == (_ROWS + 1,)
    for i in (0, _ROWS - 1, _ROWS):
        alone = _one_pair(stack[i : i + 1])
        assert (birth[i], death[i]) == (alone[0][0], alone[1][0])


def test_mu1_nonzero_and_seed_consistent():
    # wide birth band right below the death band keeps the event rate workable
    rect = Rectangle(0.05, 0.7, 0.7, 0.85)
    e1, s1 = mu_k_montecarlo(1.0, k=1, d=2, rect=rect, n_mc=4000, seed=0)
    e2, s2 = mu_k_montecarlo(1.0, k=1, d=2, rect=rect, n_mc=4000, seed=1)
    assert e1 > 0
    assert abs(e1 - e2) < 3 * math.hypot(s1, s2) + 1e-12


def test_mu_stderr_shrinks_like_sqrt_n():
    rect = Rectangle(0.05, 0.7, 0.7, 0.85)
    errs = [
        mu_k_montecarlo(1.0, k=1, d=2, rect=rect, n_mc=n, seed=3)[1]
        for n in (1000, 4000, 16000)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.3)


def test_mu_scales_linearly_in_density_moment():
    rect = Rectangle(0.05, 0.7, 0.7, 0.85)
    e1, _ = mu_k_montecarlo(1.0, k=1, d=2, rect=rect, n_mc=500, seed=0)
    e2, _ = mu_k_montecarlo(2.5, k=1, d=2, rect=rect, n_mc=500, seed=0)
    assert e2 == pytest.approx(2.5 * e1)


def test_mu_rejects_infinite_v_and_tiny_n():
    rect = Rectangle(0.1, 0.2, 0.3, np.inf)
    with pytest.raises(ValueError):
        mu_k_montecarlo(1.0, 1, 2, rect, 100, 0)
    with pytest.raises(ValueError):
        mu_k_montecarlo(1.0, 1, 2, Rectangle(0.1, 0.2, 0.3, 0.4), 1, 0)


def test_mu_rejects_degree_above_2():
    # H_3 dies by 4-simplices, which no builder makes, so the estimate would read 0
    with pytest.raises(ValueError, match="dimension 3"):
        mu_k_montecarlo(1.0, 3, 4, Rectangle(0.05, 0.7, 0.7, 0.85), 10, 0)


# --- Rademacher complexity ---------------------------------------------------


def test_rademacher_singleton_binomial_oracle():
    # one constant function f = 1: sup |sum sigma_i| / n = |Binomial walk| / n,
    # whose mean is computable exactly for small n
    n = 4
    values = np.ones((1, n))
    est, err = rademacher_estimate(values, n_draws=20000, seed=0)
    total = 0.0
    for bits in range(2**n):
        s = sum(1 if (bits >> i) & 1 else -1 for i in range(n))
        total += abs(s)
    exact = total / 2**n / n
    assert est == pytest.approx(exact, abs=5 * err + 1e-3)


def test_rademacher_monotone_in_function_class():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(5, 30))
    small, _ = rademacher_estimate(values[:2], n_draws=200, seed=7)
    big, _ = rademacher_estimate(values, n_draws=200, seed=7)
    assert big >= small - 1e-12  # same sign draws: sup over a superset


def test_rademacher_zero_class():
    values = np.zeros((3, 10))
    est, err = rademacher_estimate(values, n_draws=50, seed=0)
    assert est == 0.0 and err == 0.0


def test_rademacher_validation():
    with pytest.raises(ValueError):
        rademacher_estimate(np.empty((0, 5)), 10, 0)
    with pytest.raises(ValueError):
        rademacher_estimate(np.ones((2, 5)), 1, 0)


def test_feature_matrix_values():
    regions = [Ball(np.zeros(2), 1.0), Ball(np.array([5.0, 0.0]), 1.0)]
    measures = [
        Measure(np.array([[0.0, 0.0], [0.5, 0.0]])),
        Measure(np.array([[5.0, 0.0]]), weights=np.array([2.0])),
    ]
    got = feature_matrix(regions, measures)
    np.testing.assert_allclose(got, [[2.0, 0.0], [0.0, 2.0]])
