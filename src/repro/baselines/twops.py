"""2PS-L: Two-Phase Streaming with Linear run-time (Mayer et al., ICDE'22).

Phase 1 — streaming clustering à la Hollocou with **precomputed global
degrees** (Table 1 row "2PS-L-Clustering": allocation + global
migration), cluster volumes capped: Alg. 1's clustering at β = 0,
where every edge is global, with the cap ⌊κ⌋+1.

Phase 2 — linear-time partitioning: clusters are packed onto partitions
greedily, largest volume first, each onto the least-loaded partition
(:func:`~repro.core.game.initial_assignment`); each edge then chooses
between only the two partitions of its endpoints' clusters: the
lower-degree endpoint's first, then the other's, then the least-loaded
partition when both are at the cap. Both candidates are computed for
all edges at once; only the placement, which depends on the loads so
far, is sequential. Its cost is O(1) in k unless both candidates are
full — the linear-run-time property the paper contrasts with HDRF.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.clustering import cluster_capacity, skewness_aware_clustering
from repro.core.game import initial_assignment
from repro.core.postprocess import max_load
from repro.core.stream import degrees_np, iter_chunks


def twops_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run both 2PS-L phases; returns the per-edge partition array."""
    n_e = len(edges)
    # 2PS-L admits a move when vol + d <= κ, Alg. 1 when vol + d < cap.
    # Global volumes are integer sums of integer degrees, so the cap
    # ⌊κ⌋+1 is the same test. Alg. 1's pre-check (both volumes below
    # the cap) refuses no move 2PS-L would make: a cluster above κ never
    # received a migration, so it is a singleton whose vertex has d > κ,
    # and the admission test refuses that vertex anyway.
    cl = skewness_aware_clustering(
        edges, k, beta=0.0, kappa=math.floor(cluster_capacity(n_e, k)) + 1
    )
    v2c, vol = cl.v2c_head, cl.cluster_volume
    del cl
    c2p = initial_assignment(vol, k)
    # The lower-degree endpoint's cluster partition is tried first; u wins ties.
    degrees = degrees_np(edges)
    src, dst = edges[:, 0], edges[:, 1]
    swap = degrees[src] > degrees[dst]
    first = c2p[v2c[src]]
    second = c2p[v2c[dst]]
    first[swap], second[swap] = second[swap], first[swap]
    cap = max_load(n_e, k, tau)
    loads = [0] * k
    out = np.empty(n_e, dtype=np.int64)
    for s, rows in iter_chunks(first, second):
        placed = []
        for a, b in rows:
            if loads[a] < cap:
                p = a
            elif loads[b] < cap:
                p = b
            else:
                p = loads.index(min(loads))
            placed.append(p)
            loads[p] += 1
        out[s : s + len(placed)] = placed
    return out
