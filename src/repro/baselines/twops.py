"""2PS-L: Two-Phase Streaming with Linear run-time (Mayer et al., ICDE'22).

Phase 1 — streaming clustering à la Hollocou with **precomputed global
degrees** (Table 1 row "2PS-L-Clustering": allocation + global
migration), cluster volumes capped.

Phase 2 — linear-time partitioning: clusters are packed onto partitions
by first-fit decreasing volume; each edge then chooses between only the
two partitions of its endpoints' clusters (degree-based preference for
co-locating the lower-degree endpoint), falling back to the least-loaded
partition when both are at the cap. Per-edge cost is O(1) in k — the
linear-run-time property the paper contrasts with HDRF.
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import cluster_capacity
from repro.core.game import initial_assignment
from repro.core.postprocess import max_load
from repro.core.stream import degrees_np


def twops_cluster(
    edges: np.ndarray, kappa: float, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 clustering; returns (v2c, cluster volumes)."""
    n_v = len(degrees)
    v2c = np.full(n_v, -1, dtype=np.int64)
    vol = np.zeros(2 * n_v + 2, dtype=np.float64)
    next_id = 0
    d = degrees
    for u, v in edges:
        u = int(u); v = int(v)
        if v2c[u] < 0:
            v2c[u] = next_id; vol[next_id] = d[u]; next_id += 1
        if v2c[v] < 0:
            v2c[v] = next_id; vol[next_id] = d[v]; next_id += 1
        cu, cv = v2c[u], v2c[v]
        if cu == cv:
            continue
        # migrate the vertex in the lighter cluster if the target fits
        if vol[cu] - d[u] <= vol[cv] - d[v]:
            i, ci, cj = u, cu, cv
        else:
            i, ci, cj = v, cv, cu
        if vol[cj] + d[i] <= kappa:
            vol[cj] += d[i]; vol[ci] -= d[i]
            v2c[i] = cj
    return v2c, vol[:next_id]


def twops_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run both 2PS-L phases; returns the per-edge partition array."""
    n_e = len(edges)
    n_v = int(edges.max()) + 1 if n_e else 0
    degrees = degrees_np(edges, n_v)
    kappa = cluster_capacity(n_e, k)
    v2c, vol = twops_cluster(edges, kappa, degrees)
    c2p = initial_assignment(vol, k)
    cap = max_load(n_e, k, tau)
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]
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
