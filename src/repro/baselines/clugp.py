"""CLUGP (Kong, Xie, Zhang — ICDE'22): clustering + static game.

The strongest published competitor and the paper's closest relative.
Differences from S5P that this implementation preserves (Section 3):

* clustering is **skewness-oblivious**: one vertex-to-cluster table,
  volumes tracked with *local* degrees, plus a *splitting* operation
  when a cluster overflows (Table 1 row "CLUGP-Clustering"): Alg. 1's
  clustering at β = ∞, where every edge is local, with ``split=True``;
* the refinement game is **static** (simultaneous-move, one player
  class) rather than a sequential Stackelberg game — we reuse the game
  engine in ``one_stage`` mode with no leader set;
* postprocessing maps edges through cluster partitions under the same
  load cap (no skew-aware overflow direction).
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges
from repro.core.theta import ExactTheta


def clugp_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run CLUGP (clustering → static game → postprocess)."""
    cl = skewness_aware_clustering(edges, k, beta=np.inf, split=True)
    theta = ExactTheta()
    theta.add_pairs(*cl.cut_pairs)
    game = stackelberg_game(
        cl.n_clusters,
        cl.cluster_sizes,
        cl.cluster_is_head,  # all false, no leaders: static game
        theta.pairs(),
        k,
        one_stage=True,
    )
    return assign_edges(
        cl.edge_cu,
        cl.edge_cv,
        cl.edge_is_head,
        game.c2p,
        k,
        tau=tau,
    )
