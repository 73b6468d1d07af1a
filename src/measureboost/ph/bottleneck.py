"""Bottleneck distance between persistence diagrams.

Exact computation over the finite set of candidate distances
(point-to-point l-infinity distances and point-to-diagonal distances).  A
candidate is feasible iff the point-to-point graph within it has a matching
that covers every point farther than it from the diagonal; the diagonal
never enters the graph, and Hopcroft-Karp (`scipy.sparse.csgraph`) finds
the matching without recursion.  Every point goes to the diagonal or to a
partner, so no candidate is feasible below lb, the largest over all points
of the smaller of its diagonal distance and its cost to the nearest
partner; lb is probed first and returned if feasible.  Otherwise a binary
search runs over the candidates in (lb, ub] only, where ub, the largest
diagonal distance, is feasible: every point may go to the diagonal.
Points with infinite death must pair with infinite-death points of the
other diagram; the distance is +inf when that is impossible.
"""

from __future__ import annotations

import numpy as np

from .diagrams import PersistenceDiagram

__all__ = ["bottleneck", "bottleneck_bruteforce"]


def _split(diagram):
    pairs = np.asarray(diagram.pairs, dtype=float).reshape(-1, 2)
    inf_mask = np.isinf(pairs[:, 1])
    return pairs[~inf_mask], pairs[inf_mask]


def _diag_dist(pairs):
    return (pairs[:, 1] - pairs[:, 0]) / 2.0


def _linf(pairs_a, pairs_b):
    births = np.abs(pairs_a[:, None, 0] - pairs_b[None, :, 0])
    return np.maximum(births, np.abs(pairs_a[:, None, 1] - pairs_b[None, :, 1]))


def _covers(adj) -> bool:
    """Does one matching of the bipartite graph `adj` (rows x columns) cover
    every row?  A maximum matching (Hopcroft-Karp) answers it; its CSR
    graph is built from the edge indices, row by row."""
    from scipy.sparse import csr_matrix  # slow to import: only here
    from scipy.sparse.csgraph import maximum_bipartite_matching

    edges = np.flatnonzero(adj)  # row-major: row i owns [i * m, (i + 1) * m)
    m = adj.shape[1]
    indptr = np.searchsorted(edges, np.arange(len(adj) + 1) * m)
    graph = csr_matrix((np.ones(len(edges), dtype=bool), edges % m, indptr), shape=adj.shape)
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def _feasible(cost, diag_a, diag_b, delta) -> bool:
    """Is there a diagram matching with every displacement <= delta?

    A point within delta of the diagonal may go there; every other point
    needs a partner within delta.  So delta is feasible iff one matching of
    `cost <= delta` covers the far points of both diagrams, which holds iff
    one matching covers the far A-points and another the far B-points
    (Mendelsohn-Dulmage).
    """
    return _covers(cost[diag_a > delta] <= delta) and _covers(cost.T[diag_b > delta] <= delta)


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    fin1, inf1 = _split(d1)
    fin2, inf2 = _split(d2)
    if len(inf1) != len(inf2):
        return float("inf")
    ess = 0.0
    if len(inf1):
        # essential classes pair by sorted births (optimal for a chain)
        b1 = np.sort(inf1[:, 0])
        b2 = np.sort(inf2[:, 0])
        ess = float(np.max(np.abs(b1 - b2)))
    cost = _linf(fin1, fin2)
    diag1 = _diag_dist(fin1)
    diag2 = _diag_dist(fin2)
    # no candidate below lb is feasible (see the module docstring)
    lb = max(
        np.minimum(diag1, cost.min(axis=1, initial=np.inf)).max(initial=0.0),
        np.minimum(diag2, cost.min(axis=0, initial=np.inf)).max(initial=0.0),
    )
    if _feasible(cost, diag1, diag2, lb):
        return max(float(lb), ess)
    ub = max(diag1.max(initial=0.0), diag2.max(initial=0.0))  # a feasible candidate
    candidates = np.concatenate([cost.ravel(), diag1, diag2])
    candidates = np.unique(candidates[(candidates > lb) & (candidates <= ub)])
    lo, hi = 0, len(candidates) - 1
    # smallest candidate delta that admits a feasible matching
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cost, diag1, diag2, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(float(candidates[lo]), ess)


def bottleneck_bruteforce(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exhaustive enumeration over all partial matchings (small diagrams only)."""
    fin1, inf1 = _split(d1)
    fin2, inf2 = _split(d2)
    if len(inf1) != len(inf2):
        return float("inf")
    ess = 0.0
    if len(inf1):
        import itertools

        ess = min(
            max(abs(b1 - b2) for b1, b2 in zip(inf1[:, 0], perm))
            for perm in itertools.permutations(inf2[:, 0])
        )
    cost = _linf(fin1, fin2)
    diag1 = _diag_dist(fin1)
    diag2 = _diag_dist(fin2)
    best = [float("inf")]

    def recurse(i, used, current):
        if current >= best[0]:
            return
        if i == len(fin1):
            rest = max(
                (diag2[j] for j in range(len(fin2)) if j not in used), default=0.0
            )
            best[0] = min(best[0], max(current, rest))
            return
        recurse(i + 1, used, max(current, diag1[i]))  # send point i to diagonal
        for j in range(len(fin2)):
            if j not in used:
                recurse(i + 1, used | {j}, max(current, cost[i, j]))

    recurse(0, frozenset(), 0.0)
    return max(best[0], ess)
