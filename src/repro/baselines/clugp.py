"""CLUGP (Kong, Xie, Zhang — ICDE'22): clustering + static game.

The strongest published competitor and the paper's closest relative.
Differences from S5P that this implementation preserves (Section 3):

* clustering is **skewness-oblivious**: one vertex-to-cluster table,
  volumes tracked with *local* degrees, plus a *splitting* operation
  when a cluster overflows (Table 1 row "CLUGP-Clustering"): Alg. 1's
  allocation–migration kernel with every edge local and ``split=True``;
* the refinement game is **static** (simultaneous-move, one player
  class) rather than a sequential Stackelberg game — we reuse the game
  engine in ``one_stage`` mode with no leader set;
* postprocessing maps edges through cluster partitions under the same
  load cap (no skew-aware overflow direction).
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import allocate_migrate, cluster_capacity
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges
from repro.core.stream import degrees_np
from repro.core.theta import ExactTheta


def clugp_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run CLUGP (clustering → static game → postprocess)."""
    n_e = len(edges)
    _, v2c, vol, _ = allocate_migrate(
        edges[:, 0], edges[:, 1], np.zeros(n_e, dtype=bool), degrees_np(edges),
        cluster_capacity(n_e, k), split=True,
    )
    n_clusters = len(vol)
    edge_cu = v2c[edges[:, 0]]
    edge_cv = v2c[edges[:, 1]]
    sizes = np.bincount(edge_cu, minlength=n_clusters).astype(np.int64)
    theta = ExactTheta()
    cross = edge_cu != edge_cv
    theta.add_pairs(edge_cu[cross], edge_cv[cross])
    game = stackelberg_game(
        n_clusters,
        sizes,
        np.zeros(n_clusters, dtype=bool),  # no leaders: static game
        theta.pairs(),
        k,
        one_stage=True,
    )
    return assign_edges(
        edge_cu,
        edge_cv,
        np.zeros(n_e, dtype=bool),
        game.c2p,
        k,
        tau=tau,
    )
