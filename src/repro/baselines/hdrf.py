"""HDRF: High-Degree (are) Replicated First (Petroni et al., CIKM'15).

Sequential scoring partitioner: for each edge, pick the partition
maximizing a replication score that prefers partitions already holding
the endpoints (cutting the higher-partial-degree endpoint first) plus a
load-balance term:

    C(p) = g(u, p) + g(v, p) + λ·(maxL − load_p)/(ε + maxL − minL)
    g(x, p) = (1 + (1 − θ_x))·1[x has a replica in p],
    θ_u = δ(u)/(δ(u)+δ(v))   (partial degrees)

As in the paper's experiments we use the improved 2PS-L-repo version's
convention of exact degrees being unnecessary — partial degrees are
accumulated online. Its per-edge cost is O(k), which is exactly the
scalability weakness Table 3 / Figure 6 exhibit.
"""
from __future__ import annotations

import numpy as np

from repro.core.postprocess import max_load

#: λ, the weight of the balance term.
LAM = 1.1
#: ε, which keeps the balance term finite when every load is equal.
EPS = 1e-3


def hdrf_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run HDRF over the stream; returns the per-edge partition array."""
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    cap = max_load(n_e, k, tau)
    replicas = np.zeros((n_v, k), dtype=bool)
    pdeg = np.zeros(n_v, dtype=np.int64)  # partial degrees
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]
    for i in range(n_e):
        u = int(src[i]); v = int(dst[i])
        pdeg[u] += 1; pdeg[v] += 1
        du, dv = pdeg[u], pdeg[v]
        theta_u = du / (du + dv)
        theta_v = 1.0 - theta_u
        g_u = np.where(replicas[u], 2.0 - theta_u, 0.0)
        g_v = np.where(replicas[v], 2.0 - theta_v, 0.0)
        max_l = loads.max(); min_l = loads.min()
        bal = LAM * (max_l - loads) / (EPS + max_l - min_l)
        score = g_u + g_v + bal
        score[loads >= cap] = -np.inf  # same balance constraint as S5P
        p = int(np.argmax(score))
        if score[p] == -np.inf:  # τ < 1, every partition at the cap: spill
            p = int(np.argmin(loads))
        out[i] = p
        replicas[u, p] = True
        replicas[v, p] = True
        loads[p] += 1
    return out
