"""Postprocessing: cluster-level → edge-level assignment (Algorithm 3).

A final sequential pass over the stream. Each edge looks up the
partitions of its endpoints' clusters (head table for head edges, tail
table otherwise) and goes to the less-loaded of the two; if both are
over the cap L = ⌈τ|E|/k⌉, head edges scan partitions first→last and
tail edges last→first for free space (the skew-aware overflow rule that
concentrates head and tail overflow at opposite ends). The pass reads
the stream one chunk at a time, so it holds the output, the loads and
O(chunk) temporaries.
"""
from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .stream import chunk_slices


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
    """Run Algorithm 3 over per-edge arrays; returns the partition per edge.

    Inputs are per-edge endpoint-cluster ids (in arrival order), the
    head/tail flag per edge, and the game's cluster→partition map.
    ``tau=inf`` disables the load cap (the S5P-B variant removes
    maxLoad). The arrays are read one stream chunk at a time
    (:func:`chunk_slices`) by :func:`assign_edge_chunks`.
    """
    n_e = len(edge_cu)
    chunks = ((edge_cu[sl], edge_cv[sl], edge_is_head[sl]) for sl in chunk_slices(n_e))
    return assign_edge_chunks(chunks, n_e, c2p, k, tau=tau)


def assign_edge_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_edges: int,
    c2p: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
) -> np.ndarray:
    """Run Algorithm 3 over a stream of ``n_edges`` edges given by chunks.

    ``chunks`` yields ``(c_u, c_v, is_head)`` per chunk in arrival order
    (:meth:`~repro.core.clustering.ClusteringResult.edge_cluster_chunks`).
    Each chunk's endpoint partitions are gathered through ``c2p`` as it
    arrives, so besides the output only O(chunk) temporaries are built.
    """
    cap = max_load(n_edges, k, tau) if math.isfinite(tau) else n_edges + 1
    loads = [0] * k
    # Loads only grow, so the first partition with space from the front
    # (head scan) and the last from the back (tail scan) never move back:
    # each overflow scan resumes where the previous one stopped.
    front, back = 0, k - 1
    out = np.empty(n_edges, dtype=np.int64)
    s = 0
    for cu, cv, is_head in chunks:
        placed = []
        for a, b, head in zip(c2p[cu].tolist(), c2p[cv].tolist(), is_head.tolist()):
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
        s += len(placed)
    return out
