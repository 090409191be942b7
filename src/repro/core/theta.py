"""Θ(c_i, c_j): number of edges spanning two clusters (Eq. 7).

During the edge traversal every cross-cluster edge posts its unordered
cluster pair; the game later retrieves counts per pair. There is one
store, :class:`ExactTheta`: the sorted distinct pair codes (the
strategy-set structure) with aligned exact counts (the paper's
red-black-tree baseline; here each batch is reduced to its distinct
pairs and their counts, which are merged into the sorted arrays; same
semantics). :class:`CMSTheta` (Section 4.4) is that store plus a
Count-Min Sketch: each batch posts one (pair, count) entry per distinct
pair to the sketch, and counts are read back from the sketch. The sketch
is linear, so its table equals one fed every insert singly. Because the
exact pair set and counts are still held next to it, the sketch saves no
memory here; :attr:`CMSTheta.nbytes` reports the count table alone.
"""
from __future__ import annotations

import numpy as np

from repro.sketch.cms import CountMinSketch

_SHIFT = np.int64(32)


def pair_codes(ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
    """Encode unordered cluster pairs as int64 ``min<<32 | max``."""
    codes = np.minimum(ci, cj).astype(np.int64, copy=False) << _SHIFT
    codes |= np.maximum(ci, cj)
    return codes


def decode_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_codes`."""
    return codes >> _SHIFT, codes & np.int64((1 << 32) - 1)


class ExactTheta:
    """Exact Θ store (red-black-tree stand-in)."""

    def __init__(self) -> None:
        self._codes = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)

    def add_pairs(self, ci: np.ndarray, cj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate one count per (c_i, c_j) pair (vectorized).

        The batch is reduced to its distinct pair codes and their counts,
        which are merged into the stored sorted arrays and returned.
        """
        codes, counts = np.unique(pair_codes(ci, cj), return_counts=True)
        merged = np.union1d(self._codes, codes)
        total = np.zeros(len(merged), dtype=np.int64)
        total[np.searchsorted(merged, self._codes)] = self._counts
        total[np.searchsorted(merged, codes)] += counts
        self._codes, self._counts = merged, total
        return codes, counts

    def _weights(self) -> np.ndarray:
        """Θ counts of the stored pairs (a fresh array)."""
        return self._counts.copy()

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c_i, c_j, weight) for every intersecting cluster pair."""
        lo, hi = decode_pairs(self._codes)
        return lo, hi, self._weights()

    @property
    def nbytes(self) -> int:
        return self._codes.nbytes + self._counts.nbytes


class CMSTheta(ExactTheta):
    """Θ counts read from a CMS (paper default: ε=0.1, ν=0.01)."""

    def __init__(self, eps: float = 0.1, nu: float = 0.01, seed: int = 7) -> None:
        super().__init__()
        self.cms = CountMinSketch(eps=eps, nu=nu, seed=seed)

    def add_pairs(self, ci: np.ndarray, cj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        codes, counts = super().add_pairs(ci, cj)
        self.cms.add_batch(codes, counts)
        return codes, counts

    def _weights(self) -> np.ndarray:
        return self.cms.query_batch(self._codes)

    @property
    def nbytes(self) -> int:
        # The paper's memory claim is about the count table, which is
        # what the CMS compresses; the pair set is the strategy-set
        # structure both stores hold.
        return self.cms.nbytes
