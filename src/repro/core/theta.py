"""Θ(c_i, c_j): number of edges spanning two clusters (Eq. 7).

During the edge traversal every cross-cluster edge posts its unordered
cluster pair; the game later retrieves counts per pair. There is one
store, :class:`ExactTheta`: the sorted distinct pair codes (the
strategy-set structure) with aligned exact counts (the paper's
red-black-tree baseline; here each batch is reduced to its distinct
pairs and their counts, which are merged into the sorted arrays; same
semantics). The store does not depend on the order of the inserts, so
feeding it one stream chunk at a time gives the same pairs and counts
as one whole-stream reduction.

:class:`CMSTheta` (Section 4.4) reads the counts through a Count-Min
Sketch (Cormode & Muthukrishnan) of w = ⌈e/ε⌉ columns and d = ⌈ln 1/ν⌉
rows; with the paper's ε=0.1, ν=0.01, w=28 (the paper rounds to 27) and
d=5. A CMS is linear, so hashing each stored (pair, count) entry once
when the counts are read gives the same table as posting every insert;
the estimate of a pair is the minimum of its d cells, which never falls
below its exact count. Because the exact pair set and counts are held
anyway, the sketch saves no memory here; :attr:`CMSTheta.nbytes`
reports the w×d count table alone.

Row r hashes a code x to ``((a_r·x + b_r) mod (2^61 − 1)) mod w`` in
uint64 arithmetic, where a_r·x + b_r first wraps mod 2^64. That is not
the textbook 2-universal family, so the ε·N error bound is checked
empirically by the tests rather than inherited from the proof.
"""
from __future__ import annotations

import math

import numpy as np

_SHIFT = np.int64(32)
_PRIME = np.uint64((1 << 61) - 1)


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

    def add_pairs(self, ci: np.ndarray, cj: np.ndarray) -> None:
        """Accumulate one count per (c_i, c_j) pair (vectorized).

        The batch is reduced to its distinct pair codes and their counts.
        Codes already stored add to their counts in place; new ones are
        inserted at their sorted positions, which costs O(stored + batch)
        per batch rather than a sort of the stored codes.
        """
        codes, counts = np.unique(pair_codes(ci, cj), return_counts=True)
        at = np.searchsorted(self._codes, codes)
        seen = at < len(self._codes)
        seen[seen] = self._codes[at[seen]] == codes[seen]
        self._counts[at[seen]] += counts[seen]
        new = ~seen
        self._codes = np.insert(self._codes, at[new], codes[new])
        self._counts = np.insert(self._counts, at[new], counts[new])

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
        if not (0 < eps < 1 and 0 < nu < 1):
            raise ValueError("eps and nu must be in (0, 1)")
        super().__init__()
        self.width = math.ceil(math.e / eps)
        self.depth = math.ceil(math.log(1 / nu))
        g = np.random.default_rng(seed)
        # one multiplier a_r and one offset b_r per row, below 2^61 − 1
        self._a = (g.integers(1, 1 << 61, self.depth, dtype=np.uint64) * 2 + 1) % _PRIME
        self._b = g.integers(0, 1 << 61, self.depth, dtype=np.uint64) % _PRIME

    def _weights(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (self._a[:, None] * self._codes.astype(np.uint64) + self._b[:, None]) % _PRIME
        cells = (h % np.uint64(self.width)).astype(np.int64)
        cells += (np.arange(self.depth) * self.width)[:, None]  # row·w + col
        # The float64 sums are exact: every count and cell total is an
        # integer below 2^53.
        table = np.bincount(
            cells.ravel(), weights=np.tile(self._counts, self.depth), minlength=self.depth * self.width
        )
        return table[cells].min(axis=0).astype(np.int64)

    @property
    def nbytes(self) -> int:
        # The paper's memory claim is about the count table, which is
        # what the CMS compresses; the pair set is the strategy-set
        # structure both stores hold.
        return self.depth * self.width * np.dtype(np.int64).itemsize
