"""Θ(c_i, c_j): number of edges spanning two clusters (Eq. 7).

During the edge traversal every cross-cluster edge posts its unordered
cluster pair; the game later retrieves counts per pair. There is one
store, :class:`ExactTheta`: the sorted distinct pair codes (the
strategy-set structure) with aligned exact counts (the paper's
red-black-tree baseline; here a vectorized unique-merge, same
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
    lo = np.minimum(ci, cj).astype(np.int64)
    hi = np.maximum(ci, cj).astype(np.int64)
    return (lo << _SHIFT) | hi


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

        Returns the batch's distinct pair codes and their counts in it.
        """
        n_old = len(self._codes)
        uniq, inv = np.unique(
            np.concatenate([self._codes, pair_codes(ci, cj)]), return_inverse=True
        )
        added = np.bincount(inv[n_old:], minlength=len(uniq)).astype(np.int64)
        counts = added.copy()
        counts[inv[:n_old]] += self._counts
        self._codes, self._counts = uniq, counts
        posted = added > 0
        return uniq[posted], added[posted]

    def _weights(self, idx: slice) -> np.ndarray:
        """Θ counts of the stored pairs at ``idx`` (a fresh array)."""
        return self._counts[idx].copy()

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c_i, c_j, weight) for every intersecting cluster pair."""
        lo, hi = decode_pairs(self._codes)
        return lo, hi, self._weights(slice(None))

    def query(self, ci: int, cj: int) -> int:
        """Θ(c_i, c_j) for one pair; 0 for a pair never posted."""
        code = pair_codes(np.array([ci]), np.array([cj]))[0]
        idx = int(np.searchsorted(self._codes, code))
        if idx < len(self._codes) and self._codes[idx] == code:
            return int(self._weights(slice(idx, idx + 1))[0])
        return 0

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

    def _weights(self, idx: slice) -> np.ndarray:
        return self.cms.query_batch(self._codes[idx])

    @property
    def nbytes(self) -> int:
        # The paper's memory claim is about the count table, which is
        # what the CMS compresses; the pair set is the strategy-set
        # structure both stores hold.
        return self.cms.nbytes
