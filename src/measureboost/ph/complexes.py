"""Construction of Cech and Rips filtrations from Euclidean point clouds.

Conventions, fixed once for the whole package:
  * Cech filtration value of a simplex = radius of the minimal enclosing ball
    of its vertices (equivalent to the closed-balls intersection test).
  * Rips filtration value = diameter / 2, so the two filtrations agree on
    vertices and edges.  Beware: much of the literature uses diameter.

Simplices are enumerated densely (all vertex subsets up to max_dim whose
value is <= max_value); the edge/triangle paths are vectorized since those
dominate at the point-cloud sizes we target (hundreds of points, dim <= 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["FilteredComplex", "cech_filtration", "rips_filtration", "miniball_radius"]

_JITTER_SEED = 715517
_BUDGET = 5_000_000  # most candidate triangles, and tetrahedra, one build may enumerate


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices sorted by (filtration value, dimension, vertex order)."""

    simplices: tuple  # of (verts: tuple[int, ...], value: float)
    max_dim: int
    n_points: int

    def by_dim(self) -> list:
        """Simplices grouped by dimension, each group in filtration order."""
        groups = [[] for _ in range(self.max_dim + 1)]
        for verts, value in self.simplices:
            groups[len(verts) - 1].append((verts, value))
        return groups

    def check_monotone(self) -> None:
        """Assert every face has value <= its coface (raises on violation)."""
        values = {verts: value for verts, value in self.simplices}
        for verts, value in self.simplices:
            if len(verts) == 1:
                continue
            for face in itertools.combinations(verts, len(verts) - 1):
                if values[face] > value + 1e-12:
                    raise AssertionError(
                        f"face {face} ({values[face]}) above simplex {verts} ({value})"
                    )

    def __len__(self) -> int:
        return len(self.simplices)


def _sort_key(item):
    verts, value = item
    return (value, len(verts), verts)


def _dedup_points(points: np.ndarray) -> np.ndarray:
    """Jitter duplicate points deterministically so distances are nonzero."""
    _, first = np.unique(points, axis=0, return_index=True)
    if len(first) == len(points):
        return points
    span = np.ptp(points, axis=0)
    diag = float(np.linalg.norm(span)) or 1.0
    rng = np.random.default_rng(_JITTER_SEED)
    jitter = rng.standard_normal(points.shape) * (1e-12 * diag)
    keep = np.zeros(len(points), dtype=bool)
    keep[first] = True
    out = points.copy()
    out[~keep] += jitter[~keep]
    return out


def _circumradius3(p0, p1, p2):
    """Minimal enclosing ball radius for triples, vectorized over rows."""
    a2 = np.sum((p1 - p2) ** 2, axis=-1)
    b2 = np.sum((p0 - p2) ** 2, axis=-1)
    c2 = np.sum((p0 - p1) ** 2, axis=-1)
    e2 = np.stack([a2, b2, c2], axis=-1)
    longest = e2.max(axis=-1)
    obtuse = longest >= e2.sum(axis=-1) - longest
    area16 = np.maximum(
        2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2**2 - b2**2 - c2**2, 1e-300
    )
    circum = np.sqrt(a2 * b2 * c2 / area16)
    return np.where(obtuse, 0.5 * np.sqrt(longest), circum)


def _circumsphere_subset(pts: np.ndarray):
    """Center/radius of the smallest sphere with all of pts on its boundary.

    Works in the affine hull of pts; returns None for degenerate subsets.
    """
    p0 = pts[0]
    if len(pts) == 1:
        return p0, 0.0
    B = pts[1:] - p0
    G = B @ B.T
    b = 0.5 * np.einsum("ij,ij->i", B, B)
    try:
        alpha = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(alpha)):
        return None
    center = p0 + alpha @ B
    return center, float(np.linalg.norm(center - p0))


def miniball_radius(pts: np.ndarray) -> float:
    """Exact minimal enclosing ball radius of a small point set (<= 5 points).

    Enumerates boundary subsets and keeps the smallest enclosing candidate;
    equivalent to Welzl's recursion at these sizes.
    """
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    best = None
    for size in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            res = _circumsphere_subset(pts[list(subset)])
            if res is None:
                continue
            center, radius = res
            if best is not None and radius >= best:
                continue
            dmax = float(np.sqrt(np.max(np.sum((pts - center) ** 2, axis=1))))
            if dmax <= radius * (1 + 1e-9) + 1e-12:
                best = radius if best is None else min(best, radius)
    if best is None:  # numerically degenerate: fall back to half-diameter bound
        best = 0.5 * float(
            np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1))
        )
    return best


def _enumerate_triangles(neighbors, adj):
    """Candidate triangles (i < j < k with all pairs adjacent)."""
    tris = []
    for i, nb in enumerate(neighbors):
        if len(nb) < 2:
            continue
        sub = adj[np.ix_(nb, nb)]
        jj, kk = np.nonzero(np.triu(sub, k=1))
        if len(jj):
            tris.append(np.column_stack([np.full(len(jj), i), nb[jj], nb[kk]]))
    if not tris:
        return np.empty((0, 3), dtype=int)
    return np.concatenate(tris)


def _build_filtration(points, max_dim, max_value, value_fn3, value_fn_hi):
    points = _as_cloud(points)
    points = _dedup_points(points)
    n = len(points)
    simplices = [((i,), 0.0) for i in range(n)]
    if n >= 2 and max_dim >= 1:
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        edge_val = dist / 2.0
        adj = (edge_val <= max_value) & ~np.eye(n, dtype=bool)
        ii, jj = np.nonzero(np.triu(adj, k=1))
        for i, j, v in zip(ii.tolist(), jj.tolist(), edge_val[ii, jj].tolist()):
            simplices.append(((i, j), v))
        if max_dim >= 2:
            neighbors = [np.nonzero(adj[i, i + 1 :])[0] + i + 1 for i in range(n)]
            tris = _enumerate_triangles(neighbors, adj)
            if len(tris) > _BUDGET:
                raise RuntimeError(
                    f"{len(tris)} candidate triangles exceed the enumeration "
                    f"budget of {_BUDGET}; lower max_value or the point count"
                )
            if len(tris):
                vals = value_fn3(points, tris, edge_val)
                keep = vals <= max_value
                tris, vals = tris[keep], vals[keep]
                # guard against fp violating face monotonicity
                emax = np.maximum(
                    edge_val[tris[:, 0], tris[:, 1]],
                    np.maximum(
                        edge_val[tris[:, 0], tris[:, 2]],
                        edge_val[tris[:, 1], tris[:, 2]],
                    ),
                )
                vals = np.maximum(vals, emax)
                for t, v in zip(tris.tolist(), vals.tolist()):
                    simplices.append((tuple(t), v))
                if max_dim >= 3:
                    tri_set = {tuple(t): v for t, v in zip(tris.tolist(), vals.tolist())}
                    count = 0
                    for verts in itertools.combinations(range(n), 4):
                        faces = list(itertools.combinations(verts, 3))
                        if any(f not in tri_set for f in faces):
                            continue
                        count += 1
                        if count > _BUDGET:
                            raise RuntimeError("tetrahedron enumeration over budget")
                        v = value_fn_hi(points, verts)
                        v = max(v, max(tri_set[f] for f in faces))
                        if v <= max_value:
                            simplices.append((verts, v))
    simplices.sort(key=_sort_key)
    return FilteredComplex(tuple(simplices), max_dim=max_dim, n_points=n)


def _as_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a (n, d) array")
    return pts


def cech_filtration(points, max_dim: int, max_value: float) -> FilteredComplex:
    """Cech filtration: simplex value = minimal enclosing ball radius."""
    if max_dim > 3:
        raise ValueError("max_dim above 3 is not supported")

    def tri_vals(pts, tris, edge_val):
        return _circumradius3(pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]])

    def hi_val(pts, verts):
        return miniball_radius(pts[list(verts)])

    return _build_filtration(points, max_dim, max_value, tri_vals, hi_val)


def rips_filtration(points, max_dim: int, max_value: float) -> FilteredComplex:
    """Rips filtration with value = diameter/2 (matches Cech on edges)."""
    if max_dim > 3:
        raise ValueError("max_dim above 3 is not supported")

    def tri_vals(pts, tris, edge_val):
        return np.maximum(
            edge_val[tris[:, 0], tris[:, 1]],
            np.maximum(
                edge_val[tris[:, 0], tris[:, 2]], edge_val[tris[:, 1], tris[:, 2]]
            ),
        )

    def hi_val(pts, verts):
        sub = pts[list(verts)]
        return 0.5 * float(
            np.max(np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1))
        )

    return _build_filtration(points, max_dim, max_value, tri_vals, hi_val)
