import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from measureboost.graphs import Graph, graph_hks, graph_sublevel_diagrams
from measureboost.ph.persistence import betti_oracle

from filtered import complex_of
from membership import persistent_betti


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


# --- heat-kernel signature ---------------------------------------------------


@pytest.mark.parametrize("t", [0.1, 2.5, 10.0])
def test_hks_cycle_closed_form(t):
    # C_n has normalized-Laplacian eigenvalues 1 - cos(2 pi k / n), and every
    # vertex sees the mean of their heat factors
    for n in range(3, 31):
        expected = np.mean(np.exp(-t * (1 - np.cos(2 * np.pi * np.arange(n) / n))))
        np.testing.assert_allclose(graph_hks(cycle_graph(n), t), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [0.1, 2.5, 10.0])
def test_hks_complete_closed_form(t):
    # K_n has eigenvalue 0 once and n / (n - 1) with multiplicity n - 1
    for n in range(3, 31):
        expected = (1 + (n - 1) * np.exp(-t * n / (n - 1))) / n
        np.testing.assert_allclose(graph_hks(complete_graph(n), t), expected, rtol=0, atol=1e-12)


def test_hks_constant_on_vertex_transitive_graph():
    h = graph_hks(cycle_graph(4), t=10.0)
    np.testing.assert_allclose(h, h[0], atol=1e-10)


def test_hks_isolated_vertex_is_one():
    g = Graph(3, ((0, 1),))
    h = graph_hks(g, t=5.0)
    assert h[2] == pytest.approx(1.0, abs=1e-10)


def test_hks_distinguishes_degrees():
    # star graph: the hub and the leaves get different signatures
    g = Graph(5, tuple((0, i) for i in range(1, 5)))
    h = graph_hks(g, t=2.0)
    assert abs(h[0] - h[1]) > 1e-6
    np.testing.assert_allclose(h[1:], h[1], atol=1e-10)


def test_hks_empty_graph_raises():
    with pytest.raises(ValueError):
        graph_hks(Graph(0, ()))


# --- sublevel persistence ----------------------------------------------------


def test_tree_has_empty_d1_and_full_d0():
    g = path_graph(6)
    vals = np.array([0.1, 0.5, 0.2, 0.9, 0.3, 0.4])
    d0, d1 = graph_sublevel_diagrams(g, vals)
    assert len(d1.pairs) == 0
    assert len(d0.pairs) == 6  # n-1 finite merges + 1 essential
    assert np.sum(np.isinf(d0.pairs[:, 1])) == 1
    essential = d0.pairs[np.isinf(d0.pairs[:, 1])]
    assert essential[0, 0] == pytest.approx(vals.min())


def test_cycle_constant_function():
    g = cycle_graph(5)
    d0, d1 = graph_sublevel_diagrams(g, np.full(5, 0.7))
    assert d1.pairs.shape == (1, 2)
    assert d1.pairs[0, 0] == pytest.approx(0.7)
    assert np.isinf(d1.pairs[0, 1])
    # single essential component; merge pairs are all zero-length
    assert np.sum(np.isinf(d0.pairs[:, 1])) == 1
    finite = d0.pairs[np.isfinite(d0.pairs[:, 1])]
    np.testing.assert_allclose(finite[:, 0], finite[:, 1])


def test_d1_size_is_cycle_rank():
    rng = np.random.default_rng(3)
    g = Graph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)))
    _, d1 = graph_sublevel_diagrams(g, rng.uniform(size=6))
    assert len(d1.pairs) == len(g.edges) - g.n + 1  # connected: |E| - |V| + 1


def _components(g, vals, r):
    """Vertex sets of the components of the r-sublevel graph."""
    alive = [v for v in range(g.n) if vals[v] <= r]
    parent = {v: v for v in alive}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        if max(vals[u], vals[v]) <= r:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    comps = {}
    for v in alive:
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


@given(st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=80, deadline=None)  # about 40 of each kind
def test_sublevel_betti_match_union_find_oracle(seed, tied):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.uniform(size=len(possible)) < 0.35
    g = Graph(n, tuple(e for e, k in zip(possible, keep) if k))
    if tied:  # integer values 0..2: vertices and edges share filtration values
        vals = rng.integers(0, 3, size=n).astype(float)
        grid = np.linspace(-0.5, 2.5, 7)
    else:
        vals = rng.uniform(size=n)
        grid = np.linspace(0.0, 1.1, 8)
    d0, d1 = graph_sublevel_diagrams(g, vals)
    for r in grid:
        comps = _components(g, vals, r)
        n_verts = sum(len(c) for c in comps)
        n_edges = sum(max(vals[u], vals[v]) <= r for u, v in g.edges)
        assert persistent_betti(d0, r) == len(comps)
        if n_verts:
            assert persistent_betti(d1, r) == n_edges - n_verts + len(comps)
        # two-scale rank: the classes born by r still alive after s are the
        # s-components holding a vertex of value <= r
        for s_ in grid[grid >= r]:
            alive = np.sum((d0.pairs[:, 0] <= r) & (d0.pairs[:, 1] > s_))
            assert alive == sum(any(vals[v] <= r for v in c) for c in _components(g, vals, s_))


@st.composite
def tied_graphs(draw):
    """A graph with integer vertex values 0..2, its edges in any order and
    orientation."""
    n = draw(st.integers(0, 8))
    vals = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    if n < 2:
        return Graph(n, ()), vals
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), unique_by=frozenset))
    return Graph(n, tuple(edges)), vals


@given(tied_graphs())
@settings(max_examples=100, deadline=None)
def test_sublevel_diagrams_match_betti_oracle(graph_vals):
    g, vals = graph_vals
    d0, d1 = graph_sublevel_diagrams(g, vals)
    # the lower-star complex, sorted by (value, dimension, vertices) here
    simplices = [((v,), vals[v]) for v in range(g.n)]
    simplices += [((u, v), max(vals[u], vals[v])) for u, v in g.edges]
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    fc = complex_of(simplices, 2)
    for r in np.linspace(-0.5, 2.5, 7):
        assert persistent_betti(d0, r) == betti_oracle(fc, r, 0)
        assert persistent_betti(d1, r) == betti_oracle(fc, r, 1)


def test_sublevel_pairs_of_a_tied_path():
    # vertex 1 enters at 1 with both of its edges: the edge (0, 1) kills it at
    # once, a kept zero-length pair; the edge (1, 2) then joins two classes born
    # at 0, and the younger root, vertex 2, dies
    d0, d1 = graph_sublevel_diagrams(path_graph(3), np.array([0.0, 1.0, 0.0]))
    assert d0.pairs.tolist() == [[0.0, 1.0], [0.0, np.inf], [1.0, 1.0]]
    assert d1.pairs.shape == (0, 2)


# --- construction and serialization ------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_normalizes_edge_order():
    g = Graph(3, ((2, 0),))
    assert g.edges == ((0, 2),)

