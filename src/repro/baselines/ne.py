"""NE: offline edge partitioning via neighborhood expansion (KDD'17).

Representative offline baseline (the paper's other offline baselines,
METIS and HEP, appear only in figure experiments — see DESIGN.md §5).
Grows each partition from a seed by repeatedly absorbing the boundary
vertex with the fewest unassigned external edges, assigning its
unassigned edges, until the partition reaches the cap ⌈τ|E|/k⌉.
Requires the whole graph in memory — the offline trade-off Figure 6 is
about.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.postprocess import max_load


def ne_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run neighborhood expansion; returns the per-edge partition array."""
    n_e = len(edges)
    n_v = int(edges.max()) + 1 if n_e else 0
    cap = max_load(n_e, k, tau)

    # adjacency: vertex -> [(neighbor, eid), ...]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_v)]
    for eid, (u, v) in enumerate(edges):
        adj[int(u)].append((int(v), eid))
        adj[int(v)].append((int(u), eid))

    assigned = np.full(n_e, -1, dtype=np.int64)
    in_core = np.zeros(n_v, dtype=bool)
    unassigned_deg = np.array([len(a) for a in adj], dtype=np.int64)

    next_seed = 0
    for p in range(k - 1):
        count = 0
        heap: list[tuple[int, int]] = []
        # seed: lowest-unassigned-degree untouched vertex
        while next_seed < n_v and (in_core[next_seed] or unassigned_deg[next_seed] == 0):
            next_seed += 1
        if next_seed >= n_v:
            break
        heapq.heappush(heap, (int(unassigned_deg[next_seed]), next_seed))
        while count < cap:
            while heap:
                d, x = heapq.heappop(heap)
                if not in_core[x] and unassigned_deg[x] > 0:
                    break
            else:
                # frontier exhausted: restart from a fresh seed
                while next_seed < n_v and (
                    in_core[next_seed] or unassigned_deg[next_seed] == 0
                ):
                    next_seed += 1
                if next_seed >= n_v:
                    break
                x = next_seed
            in_core[x] = True
            for y, eid in adj[x]:
                if assigned[eid] < 0 and count < cap:
                    assigned[eid] = p
                    count += 1
                    unassigned_deg[x] -= 1
                    unassigned_deg[y] -= 1
                    if not in_core[y]:
                        heapq.heappush(heap, (int(unassigned_deg[y]), int(y)))
            if count >= cap:
                break
    # Leftovers fill the last partition up to the cap, then each goes to
    # the least-loaded partition.
    loads = np.bincount(assigned[assigned >= 0], minlength=k).tolist()
    for eid in np.flatnonzero(assigned < 0).tolist():
        p = k - 1 if loads[k - 1] < cap else loads.index(min(loads))
        assigned[eid] = p
        loads[p] += 1
    return assigned
