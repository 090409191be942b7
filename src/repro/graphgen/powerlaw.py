"""Power-law graph generators standing in for the paper's real graphs.

Two generators:

* :func:`chung_lu` — plain Chung–Lu: endpoints sampled proportionally to
  a Zipf weight sequence with exponent ``rho`` (the regression-based
  skewness of Section 2.3). No community structure.
* :func:`community_powerlaw` — Chung–Lu degrees overlaid on a planted
  community structure. ``p_intra`` controls how often an edge stays
  inside its source's community. Web crawls (host locality) are modeled
  with ``p_intra`` near 1 and many small communities; social networks
  with weaker locality and hub vertices that span communities. This is
  what lets clustering-based partitioners reach RF ≈ 1 on the "web"
  stand-ins, reproducing the Table 3 crossover (see DESIGN.md §4).

Both return (m, 2) int64 numpy arrays, deterministic in ``seed``.
Stream order matters for streaming partitioners, so generators emit
edges in a *partially local* order: grouped by community, then shuffled
within a sliding window (``shuffle_window``), mimicking crawl order.
"""
from __future__ import annotations

import numpy as np


def _powerlaw_degree_weights(
    n: int, rho: float, n_edges: int, g: np.random.Generator
) -> np.ndarray:
    """Endpoint-sampling weights from an explicit power-law degree
    sequence f(d) ∝ d^-ρ with the structural cutoff d_max ≈ √(2|E|).

    Real graphs with ρ < 2 only exist because of this finite-size
    cutoff; without it a handful of mega-hubs absorb nearly all edges
    and every clustering degenerates (see DESIGN.md §4). Weights are
    sorted descending so low vertex ids are the hubs.
    """
    d_max = max(8, int(np.sqrt(2.0 * n_edges)))
    d = np.arange(1, d_max + 1, dtype=np.float64)
    pmf = d**-rho
    pmf /= pmf.sum()
    degs = g.choice(d, size=n, p=pmf)
    degs[::-1].sort()
    return degs / degs.sum()


def _window_shuffle(edges: np.ndarray, window: int, g: np.random.Generator) -> np.ndarray:
    """Shuffle edges within consecutive windows, preserving global locality."""
    if window <= 1 or len(edges) == 0:
        return edges
    out = edges.copy()
    for start in range(0, len(out), window):
        sl = slice(start, min(start + window, len(out)))
        perm = g.permutation(sl.stop - sl.start)
        out[sl] = out[sl][perm]
    return out


def chung_lu(
    n_vertices: int,
    n_edges: int,
    *,
    rho: float = 2.2,
    seed: int = 0,
) -> np.ndarray:
    """Plain Chung–Lu power-law graph (no community structure)."""
    g = np.random.default_rng(seed)
    w = _powerlaw_degree_weights(n_vertices, rho, n_edges, g)
    # Oversample to compensate for dropped self loops.
    m = int(n_edges * 1.05) + 8
    src = g.choice(n_vertices, size=m, p=w)
    dst = g.choice(n_vertices, size=m, p=w)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)[:n_edges]
    return edges.astype(np.int64)


def community_powerlaw(
    n_vertices: int,
    n_edges: int,
    *,
    rho: float = 2.2,
    n_communities: int = 64,
    p_intra: float = 0.9,
    hub_fraction: float = 0.002,
    hub_pool_frac: float | None = None,
    shuffle_window: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Community-structured power-law graph.

    Vertices are assigned to ``n_communities`` near-uniform communities
    (uniform sizes keep the largest community below a partition's
    capacity at the paper's k values — with heavy-tailed community
    sizes a single giant community imposes an RF floor no partitioner
    can beat, which the real graphs do not exhibit). The
    ``hub_fraction`` highest-weight vertices are global hubs: edges
    incident to them ignore community walls (this is what makes social
    graphs hard to partition). Every other edge stays inside its
    source's community with probability ``p_intra``.

    ``hub_pool_frac``: if set, inter-community edges land only on the
    top-weight vertex pool (hub-mediated bridging, the web-crawl
    pattern: cross-host links go through index pages). If ``None``,
    inter-community destinations are degree-weighted over all vertices
    (social pattern: low-degree vertices also bridge communities).
    """
    if n_communities < 1:
        raise ValueError("n_communities must be >= 1")
    g = np.random.default_rng(seed)
    w = _powerlaw_degree_weights(n_vertices, rho, n_edges, g)

    # Near-uniform community sizes; membership independent of degree
    # rank, so hubs land in random communities.
    comm_of = g.integers(0, n_communities, n_vertices)
    n_hubs = max(1, int(hub_fraction * n_vertices)) if hub_fraction > 0 else 0

    # Per-community sampling tables (vertex ids + normalized weights).
    order = np.argsort(comm_of, kind="stable")
    sorted_comm = comm_of[order]
    starts = np.searchsorted(sorted_comm, np.arange(n_communities))
    ends = np.searchsorted(sorted_comm, np.arange(n_communities), side="right")

    m = int(n_edges * 1.08) + 16
    src = g.choice(n_vertices, size=m, p=w)
    dst = np.empty(m, dtype=np.int64)

    is_hub_edge = src < n_hubs  # hub endpoints: global destination
    intra = (~is_hub_edge) & (g.random(m) < p_intra)

    # Destinations for hub edges and escaped (inter-community) edges:
    # degree-weighted over the whole graph, or hub-mediated (top pool).
    glob = ~intra
    if hub_pool_frac is None:
        dst[glob] = g.choice(n_vertices, size=int(glob.sum()), p=w)
    else:
        n_pool = max(2, int(hub_pool_frac * n_vertices))
        pool_w = w[:n_pool] / w[:n_pool].sum()
        dst[glob] = g.choice(n_pool, size=int(glob.sum()), p=pool_w)

    # Intra-community destinations: uniform within the source's community
    # (community-internal degree skew comes from source sampling).
    idx = np.flatnonzero(intra)
    if len(idx):
        cs = comm_of[src[idx]]
        lo, hi = starts[cs], ends[cs]
        empty = hi <= lo  # degenerate community of size 0 can't happen; size 1 → self
        pick = lo + (g.random(len(idx)) * (hi - lo)).astype(np.int64)
        dst[idx] = order[np.minimum(pick, len(order) - 1)]
        dst[idx[empty]] = g.choice(n_vertices, size=int(empty.sum()), p=w)

    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)[:n_edges].astype(np.int64)

    # Locality-preserving stream order: sort by source community with a
    # stable sort (keeps generation order within a community), then
    # window-shuffle to avoid a pathologically clean order.
    comm_key = comm_of[edges[:, 0]]
    edges = edges[np.argsort(comm_key, kind="stable")]
    if shuffle_window:
        edges = _window_shuffle(edges, shuffle_window, g)
    return edges
