"""Undirected graphs, the heat-kernel vertex signature, and persistence of
sublevel filtrations of a vertex function.

The heat-kernel signature needs the full spectrum of the symmetric
normalized Laplacian; it comes from `numpy.linalg.eigh` and is checked
against the closed forms of cycle and complete graphs in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ph.diagrams import PersistenceDiagram

__all__ = [
    "Graph",
    "normalized_laplacian",
    "graph_hks",
    "graph_sublevel_diagrams",
    "save_graph_json",
    "load_graph_json",
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

    A vertex enters at its value and an edge at the max of its endpoints.
    D0 follows the elder rule via union-find; the global minimum is the
    essential component.  Each independent cycle contributes (edge value,
    +inf) to D1 since a graph has no 2-cells.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (g.n,):
        raise ValueError("need one value per vertex")
    parent = list(range(g.n))
    birth = values.copy()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_items = sorted(
        ((max(values[u], values[v]), u, v) for u, v in g.edges), key=lambda e: e[0]
    )
    d0_pairs = []
    d1_pairs = []
    for val, u, v in edge_items:
        ru, rv = find(u), find(v)
        if ru == rv:
            d1_pairs.append((val, np.inf))
            continue
        # elder rule: the younger component (larger birth) dies
        if birth[ru] > birth[rv] or (birth[ru] == birth[rv] and ru > rv):
            ru, rv = rv, ru
        d0_pairs.append((float(birth[rv]), float(val)))
        parent[rv] = ru
    # one essential class per remaining component
    for root in {find(x) for x in range(g.n)}:
        d0_pairs.append((float(birth[root]), np.inf))
    d0_pairs.sort()
    d1_pairs.sort()
    return (
        PersistenceDiagram(0, np.array(d0_pairs, dtype=float).reshape(-1, 2)),
        PersistenceDiagram(1, np.array(d1_pairs, dtype=float).reshape(-1, 2)),
    )


def save_graph_json(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump({"n": g.n, "edges": [list(e) for e in g.edges]}, fh)


def load_graph_json(path) -> Graph:
    with open(path) as fh:
        obj = json.load(fh)
    return Graph(int(obj["n"]), tuple(tuple(e) for e in obj["edges"]))
