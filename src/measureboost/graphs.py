"""Undirected graphs, the heat-kernel vertex signature, and persistence of
sublevel filtrations of a vertex function.

The heat-kernel signature needs the full spectrum of the symmetric
normalized Laplacian; it comes from `numpy.linalg.eigh` and is checked
against the closed forms of cycle and complete graphs in the tests.  The
sublevel diagrams come from `persistence`, like every other diagram of the
package: the graph is a lower-star filtered complex of vertices and edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ph.complexes import FilteredComplex
from .ph.persistence import persistence

__all__ = [
    "Graph",
    "normalized_laplacian",
    "graph_hks",
    "graph_sublevel_diagrams",
]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # of (u, v) with u < v

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for u, v in self.edges:
            A[u, v] = A[v, u] = 1.0
        return A


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetric normalized Laplacian; rows of isolated vertices are zero."""
    A = g.adjacency()
    deg = A.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    L = -inv_sqrt[:, None] * A * inv_sqrt[None, :]
    np.fill_diagonal(L, np.where(deg > 0, 1.0, 0.0))
    return L


def graph_hks(g: Graph, t: float = 10.0) -> np.ndarray:
    """Heat-kernel signature per vertex: sum_k exp(-t lam_k) psi_k(v)^2."""
    if g.n == 0:
        raise ValueError("empty graph")
    lam, psi = np.linalg.eigh(normalized_laplacian(g))
    return (psi**2) @ np.exp(-t * lam)


def graph_sublevel_diagrams(g: Graph, values) -> tuple:
    """(D0, D1) of the lower-star filtration of a vertex function.

    A vertex enters at its value and an edge at the max of its endpoints;
    `persistence` pairs the vertices with the edges by union-find, and the
    complex has no triangles, so every cycle is essential in D1.
    Zero-length pairs are kept: a vertex that enters with an edge that joins
    it to an older component gives its (b, b) pair in D0.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (g.n,):
        raise ValueError("need one value per vertex")
    edges = np.unique(np.array(g.edges, dtype=np.intp).reshape(-1, 2), axis=0)  # lexicographic rows
    low, high = values[edges].T
    edge_values = np.where(high > low, high, low)  # of equal values the first, as max() has it
    # stable sorts by value over sorted rows: the filtration order
    vo, eo = np.argsort(values, kind="stable"), np.argsort(edge_values, kind="stable")
    fc = FilteredComplex(  # D0 and D1; no triangles
        (np.arange(g.n)[vo, None], edges[eo], np.empty((0, 3), dtype=np.intp)), (values[vo], edge_values[eo], np.empty(0))
    )
    return tuple(persistence(fc, include_zero_length=True))
