"""2PS-L: Two-Phase Streaming with Linear run-time (Mayer et al., ICDE'22).

Phase 1 — streaming clustering à la Hollocou with **precomputed global
degrees** (Table 1 row "2PS-L-Clustering": allocation + global
migration), cluster volumes capped: Alg. 1's allocation–migration
kernel with every edge global.

Phase 2 — linear-time partitioning: clusters are packed onto partitions
greedily, largest volume first, each onto the least-loaded partition
(:func:`~repro.core.game.initial_assignment`); each edge then chooses
between only the two partitions of its endpoints' clusters (degree-based
preference for co-locating the lower-degree endpoint), falling back to
the least-loaded partition when both are at the cap. Per-edge cost is O(1) in k — the
linear-run-time property the paper contrasts with HDRF.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.clustering import allocate_migrate, cluster_capacity
from repro.core.game import initial_assignment
from repro.core.postprocess import max_load
from repro.core.stream import degrees_np


def twops_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run both 2PS-L phases; returns the per-edge partition array."""
    n_e = len(edges)
    degrees = degrees_np(edges)
    src, dst = edges[:, 0], edges[:, 1]
    # 2PS-L admits a move when vol + d <= κ, the kernel when vol + d < cap.
    # Global volumes are integer sums of integer degrees, so the cap
    # ⌊κ⌋+1 is the same test. The kernel's pre-check (both volumes below
    # the cap) refuses no move 2PS-L would make: a cluster above κ never
    # received a migration, so it is a singleton whose vertex has d > κ,
    # and the admission test refuses that vertex anyway.
    v2c, _, vol, _ = allocate_migrate(
        src, dst, np.ones(n_e, dtype=bool), degrees,
        math.floor(cluster_capacity(n_e, k)) + 1,
    )
    c2p = initial_assignment(vol, k)
    cap = max_load(n_e, k, tau)
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    for i in range(n_e):
        u = int(src[i]); v = int(dst[i])
        pu = int(c2p[v2c[u]]); pv = int(c2p[v2c[v]])
        if pu == pv and loads[pu] < cap:
            p = pu
        else:
            # prefer the partition of the lower-degree endpoint's cluster
            first, second = (pu, pv) if degrees[u] <= degrees[v] else (pv, pu)
            if loads[first] < cap:
                p = first
            elif loads[second] < cap:
                p = second
            else:
                p = int(np.argmin(loads))
        out[i] = p
        loads[p] += 1
    return out
