"""Bottleneck distance between persistence diagrams.

Exact computation: binary search over the finite set of candidate distances
(point-to-point l-infinity distances and point-to-diagonal distances).  A
candidate is feasible iff the point-to-point graph within it has a matching
that covers every point farther than it from the diagonal; the diagonal
never enters the graph, and Hopcroft-Karp (`scipy.sparse.csgraph`) finds
the matching without recursion.  Points with infinite death must pair with
infinite-death points of the other diagram; the distance is +inf when that
is impossible.
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
    return np.max(np.abs(pairs_a[:, None, :] - pairs_b[None, :, :]), axis=-1)


def _covers(adj, rows) -> bool:
    """Does one matching of the bipartite graph `adj` (rows x columns) cover
    every row in `rows`?  A maximum matching of those rows (Hopcroft-Karp)
    answers it."""
    from scipy.sparse import csr_matrix  # slow to import: only here
    from scipy.sparse.csgraph import maximum_bipartite_matching

    return bool(np.all(maximum_bipartite_matching(csr_matrix(adj[rows]), perm_type="column") >= 0))


def _feasible(cost, diag_a, diag_b, delta) -> bool:
    """Is there a diagram matching with every displacement <= delta?

    A point within delta of the diagonal may go there; every other point
    needs a partner within delta.  So delta is feasible iff one matching of
    `cost <= delta` covers the far points of both diagrams, which holds iff
    one matching covers the far A-points and another the far B-points
    (Mendelsohn-Dulmage).
    """
    adj = cost <= delta
    return _covers(adj, np.flatnonzero(diag_a > delta)) and _covers(
        adj.T, np.flatnonzero(diag_b > delta)
    )


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
    candidates = np.unique(
        np.concatenate([cost.ravel(), diag1, diag2, [0.0]])
    )
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
