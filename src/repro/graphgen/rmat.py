"""R-MAT synthetic graph generator (stand-in for TrillionG [44]).

The paper generates its six synthetic graphs G1..G6 and the tiny
optimality graphs with R-MAT. This is a vectorized numpy implementation
of the classic recursive-quadrant model (Chakrabarti et al., SDM'04):
each of ``scale`` bits of (row, col) is drawn independently from the
quadrant distribution (a, b, c, d) — the standard "bit-by-bit" trick
that is exactly equivalent to the recursive formulation.

All generators in this package return driver-side numpy arrays; the
Spark materialization lives in :mod:`repro.core.stream`.
"""
from __future__ import annotations

import numpy as np


def rmat_edges(
    scale: int,
    n_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> np.ndarray:
    """Generate an R-MAT edge list over ``2**scale`` vertex ids.

    Returns an ``(m, 2)`` int64 array of (src, dst). Duplicate edges are
    kept (a property of R-MAT streams); self loops are dropped since
    none of the paper's partitioning metrics are defined on them.
    Deterministic in ``seed``.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("quadrant probabilities must satisfy 0 < a+b+c < 1")
    d = 1.0 - a - b - c
    g = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    # Per bit: quadrant ~ Categorical(a, b, c, d); quadrant index q has
    # row bit q >> 1 is wrong — convention: a=(0,0) b=(0,1) c=(1,0) d=(1,1).
    probs = np.array([a, b, c, d])
    cum = np.cumsum(probs)
    for bit in range(scale):
        q = np.searchsorted(cum, g.random(n_edges), side="right")
        src = (src << 1) | (q >> 1)
        dst = (dst << 1) | (q & 1)
    edges = np.stack([src, dst], axis=1)
    return edges[edges[:, 0] != edges[:, 1]]
