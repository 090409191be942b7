"""Postprocessing: cluster-level → edge-level assignment (Algorithm 3).

A final sequential pass over the stream. Each edge looks up the
partitions of its endpoints' clusters (head table for head edges, tail
table otherwise) and goes to the less-loaded of the two; if both are
over the cap L = ⌈τ|E|/k⌉, head edges scan partitions first→last and
tail edges last→first for free space (the skew-aware overflow rule that
concentrates head and tail overflow at opposite ends).
"""
from __future__ import annotations

import math

import numpy as np

from .stream import iter_chunks


def max_load(n_edges: int, k: int, tau: float = 1.0) -> int:
    """L = ⌈τ·|E|/k⌉ (Theorem 1: relative balance is then ≤ kL/|E|)."""
    return math.ceil(tau * n_edges / k)


def assign_edges(
    edge_cu: np.ndarray,
    edge_cv: np.ndarray,
    edge_is_head: np.ndarray,
    c2p: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
) -> np.ndarray:
    """Run Algorithm 3; returns the per-edge partition array.

    Inputs are per-edge endpoint-cluster ids (in arrival order), the
    head/tail flag per edge, and the game's cluster→partition map.
    ``tau=inf`` disables the load cap (the S5P-B variant removes
    maxLoad).
    """
    n_e = len(edge_cu)
    cap = max_load(n_e, k, tau) if math.isfinite(tau) else n_e + 1
    pu = c2p[edge_cu]
    pv = c2p[edge_cv]
    loads = [0] * k
    # Loads only grow, so the first partition with space from the front
    # (head scan) and the last from the back (tail scan) never move back:
    # each overflow scan resumes where the previous one stopped.
    front, back = 0, k - 1
    out = np.empty(n_e, dtype=np.int64)
    for s, rows in iter_chunks(pu, pv, edge_is_head):
        placed = []
        for a, b, head in rows:
            if loads[a] >= cap and loads[b] >= cap:
                # overflow: skew-aware scan for any partition with space
                if head:
                    while front < k and loads[front] >= cap:
                        front += 1
                    p = front
                else:
                    while back >= 0 and loads[back] >= cap:
                        back -= 1
                    p = back
                if not 0 <= p < k:  # every partition is full
                    # cap can momentarily bind if τ·|E|/k < |E|/k; spill anyway
                    p = loads.index(min(loads))
            elif loads[a] > loads[b]:
                p = b
            else:
                p = a
            placed.append(p)
            loads[p] += 1
        out[s : s + len(placed)] = placed
    return out
