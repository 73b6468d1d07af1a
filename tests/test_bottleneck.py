import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.datagen import sample_sphere, sample_torus
from measureboost.ph import cech_filtration, persistence
from measureboost.ph.bottleneck import bottleneck, bottleneck_bruteforce
from measureboost.ph.diagrams import PersistenceDiagram


def random_diagram(rng, max_pts=5, p_inf=0.15, half_grid=False):
    n = int(rng.integers(0, max_pts + 1))
    if half_grid:  # costs are multiples of 1/2, so they tie with diagonal distances
        births = rng.integers(0, 4, size=n) / 2
        deaths = births + rng.integers(0, 3, size=n) / 2
    else:
        births = rng.uniform(0, 1, size=n)
        deaths = births + rng.uniform(0, 1, size=n)
    deaths[rng.uniform(size=n) < p_inf] = np.inf
    return PersistenceDiagram(1, np.column_stack([births, deaths]).reshape(-1, 2))


def test_identical_diagrams_zero():
    d = PersistenceDiagram(1, np.array([[0.1, 0.8], [0.3, 0.4]]))
    assert bottleneck(d, d) == 0.0


def test_empty_vs_one_point():
    e = PersistenceDiagram(1, np.empty((0, 2)))
    d = PersistenceDiagram(1, np.array([[0.0, 1.0]]))
    # unmatched point goes to the diagonal at half its persistence
    assert bottleneck(e, d) == pytest.approx(0.5)
    assert bottleneck(e, e) == 0.0


def test_hand_worked_shift():
    d1 = PersistenceDiagram(1, np.array([[0.0, 1.0]]))
    d2 = PersistenceDiagram(1, np.array([[0.1, 1.2]]))
    # match cost max(0.1, 0.2) = 0.2 beats killing both (0.5 vs 0.55)
    assert bottleneck(d1, d2) == pytest.approx(0.2)


def test_essential_count_mismatch_is_inf():
    d1 = PersistenceDiagram(0, np.array([[0.0, np.inf]]))
    d2 = PersistenceDiagram(0, np.array([[0.0, np.inf], [0.0, np.inf]]))
    assert bottleneck(d1, d2) == np.inf


def test_essential_points_match_on_birth():
    d1 = PersistenceDiagram(0, np.array([[0.0, np.inf], [0.2, 0.5]]))
    d2 = PersistenceDiagram(0, np.array([[0.3, np.inf], [0.2, 0.5]]))
    assert bottleneck(d1, d2) == pytest.approx(0.3)


def _probes(monkeypatch):
    """Record the deltas `bottleneck` tests for feasibility."""
    module = importlib.import_module("measureboost.ph.bottleneck")
    feasible, probes = module._feasible, []

    def spy(cost, diag_a, diag_b, delta):
        probes.append(float(delta))
        return feasible(cost, diag_a, diag_b, delta)

    monkeypatch.setattr(module, "_feasible", spy)
    return probes


def test_answer_at_the_lower_bound_takes_one_probe(monkeypatch):
    probes = _probes(monkeypatch)
    d1 = PersistenceDiagram(1, np.array([[0.0, 1.0]]))
    d2 = PersistenceDiagram(1, np.array([[0.0, 1.2]]))
    # lb = max over both points of min(diagonal, nearest partner) = 1.2 - 1.0
    assert bottleneck(d1, d2) == 1.2 - 1.0 == pytest.approx(0.2)
    assert probes == [1.2 - 1.0]


def test_answer_above_the_lower_bound_is_searched(monkeypatch):
    probes = _probes(monkeypatch)
    d1 = PersistenceDiagram(1, np.array([[0.0, 1.0], [0.0, 1.1]]))
    d2 = PersistenceDiagram(1, np.array([[0.0, 1.05]]))
    # lb = 1.1 - 1.05 (about 0.05), but one A-point must go to the diagonal
    assert bottleneck(d1, d2) == 0.5
    assert probes[0] == 1.1 - 1.05 and len(probes) > 1
    # then only (lb, ub], ub = 0.55 the largest diagonal distance
    assert all(probes[0] < delta <= 0.55 for delta in probes[1:])


def test_one_side_empty_is_the_largest_diagonal_distance():
    e = PersistenceDiagram(1, np.empty((0, 2)))
    d = PersistenceDiagram(1, np.array([[0.2, 0.5], [0.0, 1.0]]))
    assert bottleneck(e, d) == bottleneck(d, e) == 0.5


def test_zero_length_points_are_at_distance_zero():
    e = PersistenceDiagram(1, np.empty((0, 2)))
    d1 = PersistenceDiagram(1, np.array([[0.3, 0.3], [1.0, 1.0]]))
    d2 = PersistenceDiagram(1, np.array([[0.5, 0.5]]))
    assert bottleneck(d1, d2) == bottleneck(d2, d1) == bottleneck(d1, e) == 0.0


@given(st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=400, deadline=None)  # about 200 of each kind
def test_matches_bruteforce(seed, half_grid):
    rng = np.random.default_rng(seed)
    d1 = random_diagram(rng, half_grid=half_grid)
    d2 = random_diagram(rng, half_grid=half_grid)
    fast = bottleneck(d1, d2)
    slow = bottleneck_bruteforce(d1, d2)
    # both take the smallest feasible value of one candidate set
    assert fast == slow


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_pseudometric_properties(seed):
    rng = np.random.default_rng(seed)
    d1 = random_diagram(rng, p_inf=0.0)
    d2 = random_diagram(rng, p_inf=0.0)
    d3 = random_diagram(rng, p_inf=0.0)
    ab = bottleneck(d1, d2)
    ba = bottleneck(d2, d1)
    assert ab == ba
    assert ab >= 0
    ac = bottleneck(d1, d3)
    cb = bottleneck(d3, d2)
    assert ab <= ac + cb + 1e-9
    assert bottleneck(d1, d1) == 0.0


def _square_matching(fin_a, fin_b, delta):
    """Perfect matching within delta on the square construction: rows are the
    points of A then one diagonal slot per point of B, columns the points of
    B then one diagonal slot per point of A."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    na, nb = len(fin_a), len(fin_b)
    adj = np.zeros((na + nb, na + nb), dtype=bool)
    adj[:na, :nb] = np.max(np.abs(fin_a[:, None] - fin_b[None]), axis=-1) <= delta
    adj[np.arange(na), nb + np.arange(na)] = (fin_a[:, 1] - fin_a[:, 0]) / 2 <= delta
    adj[na + np.arange(nb), np.arange(nb)] = (fin_b[:, 1] - fin_b[:, 0]) / 2 <= delta
    adj[na:, nb:] = True
    return bool(np.all(maximum_bipartite_matching(csr_matrix(adj), perm_type="column") >= 0))


def test_300_pair_h0_needs_no_recursion(monkeypatch):
    d1 = persistence(cech_filtration(sample_torus(300, 4, 2, 1), 1, 1.5))[0]
    d2 = persistence(cech_filtration(sample_sphere(300, 6, 2), 1, 1.5))[0]
    assert len(d1) == len(d2) == 300

    def refuse(limit):
        raise AssertionError("bottleneck changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    value = bottleneck(d1, d2)
    monkeypatch.undo()
    assert bottleneck(d2, d1) == value
    # one essential class each, both born at 0, so the finite parts decide
    ess1, ess2 = (d.pairs[np.isinf(d.pairs[:, 1])] for d in (d1, d2))
    assert ess1.tolist() == ess2.tolist() == [[0.0, np.inf]]
    fin1, fin2 = d1.pairs[:-1], d2.pairs[:-1]
    assert np.all(np.isfinite(fin1)) and np.all(np.isfinite(fin2))
    candidates = np.unique(np.concatenate([
        np.max(np.abs(fin1[:, None] - fin2[None]), axis=-1).ravel(),
        (fin1[:, 1] - fin1[:, 0]) / 2, (fin2[:, 1] - fin2[:, 0]) / 2, [0.0],
    ]))
    assert value in candidates and value > 0
    assert _square_matching(fin1, fin2, value)
    assert not _square_matching(fin1, fin2, candidates[candidates < value][-1])
