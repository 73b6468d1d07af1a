"""Output checks that do not go through the program's own code paths.

Recipe outputs are compared by digest with references recorded at the
commit that defined the benchmark.  A bottleneck value is checked with
scipy's bipartite matching on the square construction: a perfect matching
must exist at the value and must not exist at the next smaller candidate.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# wall-clock timings are outside the program's determinism guarantee
UNHASHED = {"timings.json"}


def digest_files(paths) -> str:
    """sha256 over the names and bytes of the given files, in the given order."""
    h = hashlib.sha256()
    for p in map(Path, paths):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_dir(path) -> str:
    """Digest of every file in a directory except the timing file."""
    files = sorted(p for p in Path(path).iterdir() if p.is_file() and p.name not in UNHASHED)
    if not files:
        raise FileNotFoundError(f"no output files in {path}")
    return digest_files(files)


def read_diagram(path, dim: int) -> np.ndarray:
    """(birth, death) pairs of the first diagram of `dim` in a diagrams JSONL file."""
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["dim"] == dim:
                pairs = [[b, math.inf if d == "inf" else d] for b, d in rec["pairs"]]
                return np.array(pairs, dtype=float).reshape(-1, 2)
    raise ValueError(f"no diagram of dim {dim} in {path}")


def perfect_matching(fin_a: np.ndarray, fin_b: np.ndarray, delta: float) -> bool:
    """Does a matching with every displacement <= delta exist?

    Rows are the points of A then one diagonal slot per point of B; columns
    are the points of B then one diagonal slot per point of A.  A point may
    take its own diagonal slot when within delta of the diagonal; diagonal
    slots pair with each other freely.
    """
    na, nb = len(fin_a), len(fin_b)
    size = na + nb
    if size == 0:
        return True
    adj = np.zeros((size, size), dtype=bool)
    if na and nb:
        adj[:na, :nb] = np.max(np.abs(fin_a[:, None, :] - fin_b[None, :, :]), axis=-1) <= delta
    ia, ib = np.arange(na), np.arange(nb)
    adj[ia, nb + ia] = (fin_a[:, 1] - fin_a[:, 0]) / 2.0 <= delta
    adj[na + ib, ib] = (fin_b[:, 1] - fin_b[:, 0]) / 2.0 <= delta
    adj[na:, nb:] = True
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck_ok(pairs_a: np.ndarray, pairs_b: np.ndarray, value: float) -> bool:
    """Is `value` the bottleneck distance between the two diagrams?"""
    inf_a, inf_b = np.isinf(pairs_a[:, 1]), np.isinf(pairs_b[:, 1])
    if inf_a.sum() != inf_b.sum():
        return math.isinf(value)
    if not math.isfinite(value):
        return False
    births_a, births_b = np.sort(pairs_a[inf_a, 0]), np.sort(pairs_b[inf_b, 0])
    ess = float(np.max(np.abs(births_a - births_b))) if len(births_a) else 0.0
    fin_a, fin_b = pairs_a[~inf_a], pairs_b[~inf_b]
    if value < ess or not perfect_matching(fin_a, fin_b, value):
        return False
    if value == ess:  # the finite part fits within the essential distance
        return True
    cost = np.max(np.abs(fin_a[:, None, :] - fin_b[None, :, :]), axis=-1) if len(fin_a) and len(fin_b) else np.empty(0)
    candidates = np.unique(np.concatenate([
        cost.ravel(), (fin_a[:, 1] - fin_a[:, 0]) / 2.0, (fin_b[:, 1] - fin_b[:, 0]) / 2.0, [0.0],
    ]))
    if value not in candidates:
        return False
    lower = candidates[candidates < value]
    return len(lower) == 0 or not perfect_matching(fin_a, fin_b, float(lower[-1]))
