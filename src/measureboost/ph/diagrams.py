"""Persistence diagrams: the (birth, death) multiset of one homology
dimension, and its measure form for the classifiers: the rotated pairs
(b, d - b), one unit-weight point each."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..measures import Measure, read_jsonl

__all__ = [
    "PersistenceDiagram",
    "diagram_to_measure",
    "save_diagrams_jsonl",
    "load_diagrams_jsonl",
]


def _as_pairs(pairs) -> np.ndarray:
    """(n, 2) float pairs with finite births, each at most its death; so a
    death is finite or +inf, never NaN or -inf."""
    p = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(p[:, 0])):
        raise ValueError("births must be finite")
    if not np.all(p[:, 0] <= p[:, 1]):
        raise ValueError("birth must not exceed death, and a death must not be NaN")
    return p


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs for one homology dimension.

    Deaths may be +inf (features alive at the end of the filtration).
    """

    dim: int
    pairs: np.ndarray

    def __post_init__(self):
        p = _as_pairs(self.pairs)
        p.setflags(write=False)
        object.__setattr__(self, "pairs", p)

    def __len__(self) -> int:
        return len(self.pairs)


def diagram_to_measure(diagram: PersistenceDiagram, truncation: float | None = None) -> Measure:
    """Unit-weight measure on the plane with one point (b, d - b) per pair.

    Infinite deaths are replaced by `truncation` before rotating, which must
    then be finite and no smaller than their largest birth.
    """
    pairs = np.array(diagram.pairs, dtype=float)
    inf = np.isinf(pairs[:, 1])
    if np.any(inf):
        if truncation is None:
            raise ValueError("diagram has infinite deaths; pass a truncation value")
        if not math.isfinite(truncation):
            raise ValueError(f"truncation must be finite to replace infinite deaths, got {truncation}")
        birth = pairs[inf, 0].max()
        if truncation < birth:
            raise ValueError(f"truncation {truncation} is below the birth {birth} of an infinite death")
        pairs[inf, 1] = truncation
    return Measure(np.column_stack([pairs[:, 0], pairs[:, 1] - pairs[:, 0]]))


# --- JSON Lines diagram format -------------------------------------------
#
# One diagram per line: {"dim": k, "pairs": [[b, d] | [b, "inf"], ...]},
# with any extra metadata keys preserved.


def save_diagrams_jsonl(diagrams, path, metas=None) -> None:
    metas = metas or [{}] * len(diagrams)
    with open(path, "w") as fh:
        for dg, meta in zip(diagrams, metas):
            pairs = [
                [b, "inf" if math.isinf(d) else d] for b, d in dg.pairs.tolist()
            ]
            rec = {"dim": dg.dim, "pairs": pairs, **meta}
            fh.write(json.dumps(rec) + "\n")


def _pairs(raw) -> np.ndarray:
    return _as_pairs([[b, math.inf if d == "inf" else d] for b, d in raw])


def load_diagrams_jsonl(path):
    """Returns (diagrams, metas): metadata is every key besides dim/pairs."""
    metas = read_jsonl(path, {"dim": int, "pairs": _pairs})
    diagrams = [PersistenceDiagram(meta.pop("dim"), meta.pop("pairs")) for meta in metas]
    return diagrams, metas
