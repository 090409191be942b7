"""Tiny graphs: the Figure-3 toy graph and the Table-5 optimality graphs.

Table 5 evaluates optimality on three tiny R-MAT graphs with
(|V|, |E|) = (7, 12), (8, 15), (10, 12). The paper does not publish the
edge lists, so we regenerate R-MAT graphs with exactly those shapes
(deduplicated, searching over seeds deterministically) — the protocol
(exact optimum by enumeration vs. streaming partitioners at k=4) is
what is reproduced, not the precise instances. They load by name
through ``catalog.standin_edges``.
"""
from __future__ import annotations

import numpy as np

from .rmat import rmat_edges


def toy_graph() -> np.ndarray:
    """A 12-vertex / 14-edge toy graph shaped like Figure 3.

    The paper's figure gives arrival order (edge numbers 1..14) and a
    head/tail split: v0..v3 form a dense high-degree core (head), the
    rest are low-degree tail vertices hanging off it. Exact adjacency
    is not recoverable from the text, so this is a faithful-shape
    reconstruction with the same |V|, |E| used by unit tests.
    Rows are in arrival (stream) order.
    """
    return np.array(
        [
            (4, 5),    # e1  tail
            (5, 6),    # e2  tail
            (3, 6),    # e3  tail
            (2, 7),    # e4  tail
            (1, 2),    # e5  head (first head edge in the worked example)
            (0, 1),    # e6  head
            (0, 2),    # e7  head
            (1, 3),    # e8  head
            (2, 3),    # e9  head
            (0, 8),    # e10 tail
            (8, 9),    # e11 tail
            (9, 10),   # e12 tail
            (10, 11),  # e13 tail
            (3, 6),    # e14 tail (parallel edge keeps |E| = 14)
        ],
        dtype=np.int64,
    )


def search_rmat(n_v: int, n_e: int, scale: int, seed0: int) -> np.ndarray:
    """Find a deduplicated R-MAT graph with exactly (n_v, n_e).

    Deterministic: scans seeds from ``seed0`` upward, relabels vertices
    densely, and returns the first instance whose vertex and edge counts
    match. Guaranteed to be stable across runs.
    """
    for seed in range(seed0, seed0 + 10_000):
        raw = rmat_edges(scale, n_e * 6, a=0.45, b=0.22, c=0.22, seed=seed)
        und = np.sort(raw, axis=1)
        uniq = np.unique(und, axis=0)
        if len(uniq) < n_e:
            continue
        sub = uniq[:n_e]
        verts = np.unique(sub)
        if len(verts) != n_v:
            continue
        remap = {v: i for i, v in enumerate(verts)}
        out = np.vectorize(remap.get)(sub).astype(np.int64)
        return out
    raise RuntimeError(f"no R-MAT instance with |V|={n_v}, |E|={n_e} found")


#: The Table-5 graphs: name -> (|V|, |E|, R-MAT scale, first seed searched).
OPTIMALITY_GRAPHS: dict[str, tuple[int, int, int, int]] = {
    "G_alpha": (7, 12, 3, 0),
    "G_beta": (8, 15, 3, 100),
    "G_gamma": (10, 12, 4, 200),
}
