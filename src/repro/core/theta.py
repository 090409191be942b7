"""Θ(c_i, c_j): number of edges spanning two clusters (Eq. 7).

During the edge traversal every cross-cluster edge posts its unordered
cluster pair; the game later retrieves counts per pair. Two stores with
one API (Section 4.4):

* :class:`ExactTheta` — exact counts (the paper's red-black-tree
  baseline; here a vectorized unique-count, same semantics);
* :class:`CMSTheta` — counts posted to a Count-Min Sketch, retrieved
  approximately. The *set* of intersecting pairs is kept exactly in
  both (it is the strategy-set structure); only the counts differ.
"""
from __future__ import annotations

import numpy as np

from repro.sketch.cms import CountMinSketch

_SHIFT = np.int64(32)


def pair_codes(ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
    """Encode unordered cluster pairs as int64 ``min<<32 | max``."""
    lo = np.minimum(ci, cj).astype(np.int64)
    hi = np.maximum(ci, cj).astype(np.int64)
    return (lo << _SHIFT) | hi


def decode_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_codes`."""
    return codes >> _SHIFT, codes & np.int64((1 << 32) - 1)


def _find(sorted_codes: np.ndarray, ci: int, cj: int) -> int | None:
    """Index of the pair (c_i, c_j) in a sorted code array, or None."""
    code = pair_codes(np.array([ci]), np.array([cj]))[0]
    idx = int(np.searchsorted(sorted_codes, code))
    if idx < len(sorted_codes) and sorted_codes[idx] == code:
        return idx
    return None


class ExactTheta:
    """Exact Θ store (red-black-tree stand-in)."""

    def __init__(self) -> None:
        self._codes = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)

    def add_pairs(self, ci: np.ndarray, cj: np.ndarray) -> None:
        """Accumulate one count per (c_i, c_j) pair (vectorized)."""
        codes = pair_codes(ci, cj)
        merged = np.concatenate([self._codes, codes])
        weights = np.concatenate([self._counts, np.ones(len(codes), dtype=np.int64)])
        uniq, inv = np.unique(merged, return_inverse=True)
        self._codes = uniq
        self._counts = np.bincount(inv, weights=weights).astype(np.int64)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c_i, c_j, weight) for every intersecting cluster pair."""
        lo, hi = decode_pairs(self._codes)
        return lo, hi, self._counts.copy()

    def query(self, ci: int, cj: int) -> int:
        """Θ(c_i, c_j) for one pair."""
        idx = _find(self._codes, ci, cj)
        return 0 if idx is None else int(self._counts[idx])

    @property
    def nbytes(self) -> int:
        return self._codes.nbytes + self._counts.nbytes


class CMSTheta:
    """CMS-backed Θ store (paper default: ε=0.1, ν=0.01)."""

    def __init__(self, eps: float = 0.1, nu: float = 0.01, seed: int = 7) -> None:
        self.cms = CountMinSketch(eps=eps, nu=nu, seed=seed)
        self._seen = np.zeros(0, dtype=np.int64)

    def add_pairs(self, ci: np.ndarray, cj: np.ndarray) -> None:
        codes = pair_codes(ci, cj)
        self.cms.add_batch(codes)
        self._seen = np.unique(np.concatenate([self._seen, codes]))

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = decode_pairs(self._seen)
        return lo, hi, self.cms.query_batch(self._seen)

    def query(self, ci: int, cj: int) -> int:
        idx = _find(self._seen, ci, cj)
        return 0 if idx is None else int(self.cms.query(int(self._seen[idx])))

    @property
    def nbytes(self) -> int:
        # The strategy-set structure (seen pairs) is O(|V|)-scale state
        # shared by both stores; the paper's memory claim is about the
        # count table, which is what the CMS compresses.
        return self.cms.nbytes
