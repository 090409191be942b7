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

from .stream import chunk_slices, degrees_np, iter_chunks


@dataclass
class ClusteringResult:
    """Output of Algorithm 1; the per-edge cluster views are built on first read.

    2PS-L reads only the vertex tables and volumes, so it never pays
    for the views that the game and Alg. 3 read.
    """

    n_vertices: int  # |V|: the vertices with an edge (ξ's and Table 2's count)
    n_edges: int
    xi: float
    kappa: float
    v2c_head: np.ndarray  # vertex -> head-cluster id, -1 if none (int32 below 2^31 clusters)
    v2c_tail: np.ndarray  # vertex -> tail-cluster id, -1 if none (same dtype)
    edge_is_head: np.ndarray  # bool per edge
    n_clusters: int
    cluster_is_head: np.ndarray  # bool per cluster id
    cluster_volume: np.ndarray  # final vol(·) per cluster id
    edges_src: np.ndarray  # view of the stream's src column (arrival order)
    edges_dst: np.ndarray  # view of the stream's dst column

    def _clusters_of(self, ends: np.ndarray, head: np.ndarray) -> np.ndarray:
        """Cluster of each endpoint, from the table its edge's type uses."""
        return np.where(head, self.v2c_head[ends], self.v2c_tail[ends])

    @cached_property
    def edge_cu(self) -> np.ndarray:
        """Per-edge cluster of src, for the whole stream at once.

        The pipeline reads :meth:`edge_cluster_chunks` instead; the
        |E|-long view stays for the tests and perfbench.
        """
        return self._clusters_of(self.edges_src, self.edge_is_head)

    @cached_property
    def edge_cv(self) -> np.ndarray:
        """Per-edge cluster of dst, for the whole stream at once."""
        return self._clusters_of(self.edges_dst, self.edge_is_head)

    def edge_cluster_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(c_u, c_v, is_head)`` per stream chunk, in arrival order.

        Chunks of :attr:`edge_cu`, :attr:`edge_cv` and ``edge_is_head``,
        built one at a time (:func:`chunk_slices`), so Alg. 3 holds no
        |E|-long cluster array.
        """
        for sl in chunk_slices(self.n_edges):
            head = self.edge_is_head[sl]
            yield self._clusters_of(self.edges_src[sl], head), self._clusters_of(self.edges_dst[sl], head), head

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        """|c| per cluster id.

        Each edge is *owned* by its src endpoint's cluster, which
        partitions E exactly (Σ|c_i| = |E|) as the cost functions require.
        Counted per vertex, so no per-edge cluster array is built: a
        vertex's head edges as src go to its head cluster, the rest of
        its edges as src to its tail cluster. ``np.add.at`` reads the
        strided src column in place, where ``np.bincount`` would copy
        it; the one per-edge temporary is the head edges' src ids.
        """
        n_v = len(self.v2c_head)
        as_src = np.zeros(n_v, dtype=np.int64)
        np.add.at(as_src, self.edges_src, 1)
        head_as_src = np.bincount(self.edges_src[self.edge_is_head], minlength=n_v)
        sizes = np.zeros(self.n_clusters, dtype=np.int64)
        for table, owned in ((self.v2c_head, head_as_src), (self.v2c_tail, as_src - head_as_src)):
            owns = owned > 0  # such a vertex has a cluster in ``table``
            # float64 sums are exact below 2^53; an empty bincount is int64
            sizes += np.bincount(table[owns], weights=owned[owns], minlength=self.n_clusters).astype(np.int64)
        return sizes

    def cut_pair_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Cluster pairs spanned by edges, under *vertex membership*.

        Θ(c_i, c_j) (Eq. 7) counts edges with one endpoint in c_i and
        the other in c_j, where a head vertex is a member of both its
        head cluster and its tail cluster (Definition 1). The
        head×tail pairs this produces are the coupling through which
        leaders' (head clusters') moves steer followers — without
        them the two game stages would be independent games.

        Walks the stream one chunk at a time (:func:`chunk_slices`) and
        yields one ``(c_u, c_v)`` block per chunk, holding its
        (head|tail)×(head|tail) table pairs. A Θ store takes the blocks
        one at a time, so this stage's temporaries are O(chunk).
        """
        for sl in chunk_slices(self.n_edges):
            src, dst = self.edges_src[sl], self.edges_dst[sl]
            hu, tu = self.v2c_head[src], self.v2c_tail[src]
            hv, tv = self.v2c_head[dst], self.v2c_tail[dst]
            # head×head, head×tail, tail×head, tail×tail
            cu = np.concatenate([hu, hu, tu, tu])
            cv = np.concatenate([hv, tv, hv, tv])
            # take() by index beats two boolean-mask copies here
            cut = np.flatnonzero((cu >= 0) & (cv >= 0) & (cu != cv))
            yield cu.take(cut), cv.take(cut)

    @property
    def cut_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All blocks of :meth:`cut_pair_blocks` as one ``(c_u, c_v)`` pair.

        Nothing in the package reads it: the pipeline feeds Θ block by
        block. It stays for the tests that compose the stages by hand and
        for perfbench's ``traced_s5p``, which still feeds Θ through it.
        """
        empty = np.zeros(0, dtype=self.v2c_tail.dtype)  # the empty stream yields no block
        cu, cv = zip(*self.cut_pair_blocks(), (empty, empty))
        return np.concatenate(cu), np.concatenate(cv)


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
    # Cluster ids (and -1) fit int32 while there are fewer than 2^31
    # clusters; the per-edge gathers through the tables are then half size.
    ids = np.int32 if len(vol) <= np.iinfo(np.int32).max else np.int64
    v2c_h = np.array(v2c_h, dtype=ids)
    v2c_t = np.array(v2c_t, dtype=ids)
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
    n_vertices = int(np.count_nonzero(degrees))
    xi = head_threshold(n_vertices, n_e, beta)
    if kappa is None:
        kappa = cluster_capacity(n_e, k)

    head_v = degrees > xi
    src, dst = edges[:, 0], edges[:, 1]
    eh = head_v[src] & head_v[dst]
    v2c_h, v2c_t, vol, is_head_c = _allocate_migrate(
        src, dst, eh, degrees, kappa, split=split, tail_moves_global=not use_local_degrees
    )
    return ClusteringResult(
        n_vertices=n_vertices,
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
