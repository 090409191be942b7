"""Skewness-aware streaming graph clustering (Algorithm 1).

A single sequential pass over the edge stream. Edges are classified as
*head* (both endpoints have global degree > ξ) or *tail*; head edges are
clustered with **global**-degree volumes, tail edges with **local**
(running) degree volumes, both capped at κ via an allocation–migration
scheme. Head vertices may appear in both tables (Definition 1).

:func:`skewness_aware_clustering` is the one entry point, and each row of
the paper's Table 1 is a set of its arguments. ξ = β·2|E|/|V| covers both
ends: β = 0 makes every edge head (global), which with the cap ⌊κ⌋+1 is
2PS-L's clustering; β = ∞ makes every edge tail (local), which is Holl's
clustering, and CLUGP's with ``split=True``. S5P is β = 1; the bounded
variant S5P-B (Section 5.3) uses global degrees everywhere and drops the
κ constraint (pass ``kappa=inf, use_local_degrees=False``).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .stream import degrees_np, iter_chunks


@dataclass
class ClusteringResult:
    """Output of Algorithm 1; the per-edge cluster views are built on first read.

    2PS-L reads only the vertex tables and volumes, so it never pays
    for the views that the game and Alg. 3 read.
    """

    n_vertices: int
    n_edges: int
    xi: float
    kappa: float
    v2c_head: np.ndarray  # vertex -> head-cluster id, -1 if none
    v2c_tail: np.ndarray  # vertex -> tail-cluster id, -1 if none
    edge_is_head: np.ndarray  # bool per edge
    n_clusters: int
    cluster_is_head: np.ndarray  # bool per cluster id
    cluster_volume: np.ndarray  # final vol(·) per cluster id
    edges_src: np.ndarray  # view of the stream's src column (arrival order)
    edges_dst: np.ndarray  # view of the stream's dst column

    @cached_property
    def edge_cu(self) -> np.ndarray:
        """Per-edge cluster of src, from the table its edge type uses."""
        return np.where(self.edge_is_head, self.v2c_head[self.edges_src], self.v2c_tail[self.edges_src])

    @cached_property
    def edge_cv(self) -> np.ndarray:
        """Per-edge cluster of dst, from the table its edge type uses."""
        return np.where(self.edge_is_head, self.v2c_head[self.edges_dst], self.v2c_tail[self.edges_dst])

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        """|c| per cluster id.

        Each edge is *owned* by its src endpoint's cluster, which
        partitions E exactly (Σ|c_i| = |E|) as the cost functions require.
        """
        return np.bincount(self.edge_cu, minlength=self.n_clusters).astype(np.int64)

    def cut_pair_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Cluster pairs spanned by edges, under *vertex membership*.

        Θ(c_i, c_j) (Eq. 7) counts edges with one endpoint in c_i and
        the other in c_j, where a head vertex is a member of both its
        head cluster and its tail cluster (Definition 1). The
        head×tail pairs this produces are the coupling through which
        leaders' (head clusters') moves steer followers — without
        them the two game stages would be independent games.

        Yields one ``(c_u, c_v)`` block per (head|tail)×(head|tail)
        table pair, so a Θ store can take them one at a time.
        """
        tables = (self.v2c_head, self.v2c_tail)
        for tu in tables:
            for tv in tables:
                pu = tu[self.edges_src]
                pv = tv[self.edges_dst]
                valid = (pu >= 0) & (pv >= 0) & (pu != pv)
                yield pu[valid], pv[valid]

    @property
    def cut_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All blocks of :meth:`cut_pair_blocks` as one ``(c_u, c_v)`` pair."""
        blocks = list(self.cut_pair_blocks())
        return (
            np.concatenate([pu for pu, _ in blocks]),
            np.concatenate([pv for _, pv in blocks]),
        )


def head_threshold(n_vertices: int, n_edges: int, beta: float = 1.0) -> float:
    """ξ = β · 2|E|/|V| — β times the average degree (footnote 2)."""
    return beta * 2.0 * n_edges / max(n_vertices, 1)


def cluster_capacity(n_edges: int, k: int) -> float:
    """κ = 2|E|/k (footnote 2)."""
    return 2.0 * n_edges / k


def _allocate_migrate(
    src: np.ndarray,
    dst: np.ndarray,
    edge_global: np.ndarray,
    degrees: np.ndarray,
    kappa: float,
    *,
    split: bool = False,
    tail_moves_global: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One allocation–migration pass over an arrival-ordered edge stream.

    The streaming clustering step of the paper's Table 1. A *global* edge
    is clustered in the global table with global-degree volumes, a
    *local* edge in the local table with local (running) degree volumes,
    both capped at ``kappa``. Alg. 1 marks its head edges global; 2PS-L
    marks every edge global, CLUGP every edge local with ``split=True``.
    ``split`` restarts a vertex whose local cluster is full in a new
    cluster (CLUGP's splitting); ``tail_moves_global`` moves local-table
    vertices by their global degree (S5P-B). ``degrees`` is indexed by
    vertex id. Returns the global table, the local table (vertex ->
    cluster id, -1 if none), the volume per cluster id and whether each
    cluster is global.
    """
    n_v = len(degrees)
    # Per-vertex state in Python lists: the loop runs on Python scalars.
    v2c_h = [-1] * n_v
    v2c_t = [-1] * n_v
    ld = [0] * n_v
    d = degrees.tolist()
    ldeg = d if tail_moves_global else ld
    vol: list[float] = []  # per cluster id, grown as clusters are created
    is_head_c: list[bool] = []

    for _, rows in iter_chunks(src, dst, edge_global):
        for u, v, head in rows:
            if head:
                # --- head edge: global-degree-aware (lines 2-11) ---
                if v2c_h[u] < 0:
                    v2c_h[u] = len(vol); vol.append(float(d[u])); is_head_c.append(True)
                if v2c_h[v] < 0:
                    v2c_h[v] = len(vol); vol.append(float(d[v])); is_head_c.append(True)
                cu = v2c_h[u]; cv = v2c_h[v]
                if cu != cv and vol[cu] < kappa and vol[cv] < kappa:
                    # i: endpoint whose cluster is lighter without it (line 6)
                    if vol[cu] - d[u] <= vol[cv] - d[v]:
                        i, ci, cj = u, cu, cv
                    else:
                        i, ci, cj = v, cv, cu
                    if vol[cj] + d[i] < kappa:  # line 8
                        vol[cj] += d[i]; vol[ci] -= d[i]
                        v2c_h[i] = cj
            else:
                # --- tail edge: local-degree-aware (lines 12-21) ---
                if v2c_t[u] < 0:
                    v2c_t[u] = len(vol); vol.append(0.0); is_head_c.append(False)
                if v2c_t[v] < 0:
                    v2c_t[v] = len(vol); vol.append(0.0); is_head_c.append(False)
                ld[u] += 1; ld[v] += 1
                cu = v2c_t[u]; cv = v2c_t[v]
                vol[cu] += 1; vol[cv] += 1
                if cu != cv and vol[cu] < kappa and vol[cv] < kappa:
                    if vol[cu] <= vol[cv]:  # line 17: argmin volume
                        i, ci, cj = u, cu, cv
                    else:
                        i, ci, cj = v, cv, cu
                    vol[cj] += ldeg[i]; vol[ci] -= ldeg[i]  # lines 19-21
                    v2c_t[i] = cj
                elif split:
                    # CLUGP: a vertex in a full cluster restarts in a new
                    # one; the old cluster's volume is left as it was.
                    for z in (u, v):
                        if vol[v2c_t[z]] >= kappa and ld[z] < kappa:
                            v2c_t[z] = len(vol); vol.append(float(ld[z])); is_head_c.append(False)

    # Drop the degree lists before the tables become arrays (lower peak).
    del ld, d, ldeg
    v2c_h = np.array(v2c_h, dtype=np.int64)
    v2c_t = np.array(v2c_t, dtype=np.int64)
    return v2c_h, v2c_t, np.array(vol, dtype=np.float64), np.array(is_head_c, dtype=bool)


def skewness_aware_clustering(
    edges: np.ndarray,
    k: int,
    *,
    beta: float = 1.0,
    kappa: float | None = None,
    use_local_degrees: bool = True,
    split: bool = False,
) -> ClusteringResult:
    """Run Algorithm 1 over an arrival-ordered ``(m, 2)`` edge array.

    Global degrees are precomputed in one pass, as in 2PS-L;
    ``use_local_degrees=False`` selects the S5P-B variant for tail
    volumes and ``split`` CLUGP's splitting of full tail clusters.
    Returns per-vertex tables; the per-edge views are built on demand.
    """
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    degrees = degrees_np(edges, n_v)
    # |V| counts the vertices with an edge; ids without one only size tables
    xi = head_threshold(int(np.count_nonzero(degrees)), n_e, beta)
    if kappa is None:
        kappa = cluster_capacity(n_e, k)

    head_v = degrees > xi
    src, dst = edges[:, 0], edges[:, 1]
    eh = head_v[src] & head_v[dst]
    v2c_h, v2c_t, vol, is_head_c = _allocate_migrate(
        src, dst, eh, degrees, kappa, split=split, tail_moves_global=not use_local_degrees
    )
    return ClusteringResult(
        n_vertices=n_v,
        n_edges=n_e,
        xi=xi,
        kappa=kappa,
        v2c_head=v2c_h,
        v2c_tail=v2c_t,
        edge_is_head=eh,
        n_clusters=len(vol),
        cluster_is_head=is_head_c,
        cluster_volume=vol,
        edges_src=src,
        edges_dst=dst,
    )
