"""Catalog of the paper's 17 evaluation graphs and their synthetic stand-ins.

Each entry records the paper's published stats (Table 2) and how we
synthesize a scaled stand-in (DESIGN.md §4). Stand-in sizes are derived
from the paper's |V|/|E| ratio so the average degree — which fixes the
head/tail threshold ξ = β·2|E|/|V| — is preserved at every preset.

Presets scale the full stand-in: ``test`` (tiny, unit tests), ``bench``
(Table 4, perfbench's Spark workload), ``full`` (Tables 2 and 3). The
Table-5 graphs G_alpha, G_beta and G_gamma load by name too; their
(|V|, |E|) is the paper's at every preset.
"""
from __future__ import annotations

import numpy as np

from .powerlaw import community_powerlaw
from .rmat import rmat_edges
from .tiny import OPTIMALITY_GRAPHS, search_rmat

#: Paper's Table 2, transcribed. rho is the regression skewness; rho1/rho2
#: Pearson's; rho3 planarization (|E| - (3|V| - 6)).
PAPER_GRAPHS: dict[str, dict] = {
    "OK": dict(v=3.1e6, e=117e6, type="social", rho=2.13, rho1=0.49, rho2=0.61),
    "TW": dict(v=42e6, e=1.5e9, type="social", rho=1.43, rho1=0.03, rho2=0.07),
    "FR": dict(v=66e6, e=1.8e9, type="social", rho=2.56, rho1=0.39, rho2=1.00),
    "LJ": dict(v=4e6, e=35e6, type="social", rho=2.40, rho1=0.38, rho2=0.79),
    "IT": dict(v=41e6, e=1.2e9, type="web", rho=1.74, rho1=0.06, rho2=0.13),
    "UK7": dict(v=106e6, e=3.7e9, type="web", rho=1.31, rho1=0.10, rho2=0.20),
    "IN": dict(v=1e6, e=16e6, type="web", rho=1.36, rho1=0.15, rho2=0.31),
    "SK": dict(v=51e6, e=1.9e9, type="web", rho=1.11, rho1=0.04, rho2=0.07),
    "UK2": dict(v=18e6, e=298e6, type="web", rho=2.06, rho1=0.21, rho2=0.38),
    "AR": dict(v=23e6, e=639e6, type="web", rho=1.62, rho1=0.10, rho2=0.19),
    "WB": dict(v=118e6, e=1e9, type="web", rho=2.21, rho1=0.11, rho2=0.23),
}

#: R-MAT ladder (Table 2's G1..G6): two families, increasing density/skew.
#: (scale bits, full-preset edge count) — ratios follow the paper's ladders
#: 314M:629M:1.04B and 671M:2.01B:3.36B.
RMAT_GRAPHS: dict[str, dict] = {
    "G1": dict(scale=10, e_full=60_000, type="synthetic"),
    "G2": dict(scale=10, e_full=120_000, type="synthetic"),
    "G3": dict(scale=10, e_full=200_000, type="synthetic"),
    "G4": dict(scale=13, e_full=80_000, type="synthetic"),
    "G5": dict(scale=13, e_full=240_000, type="synthetic"),
    "G6": dict(scale=13, e_full=400_000, type="synthetic"),
}

SOCIAL_GRAPHS = [n for n, s in PAPER_GRAPHS.items() if s["type"] == "social"]
WEB_GRAPHS = [n for n, s in PAPER_GRAPHS.items() if s["type"] == "web"]
ALL_REAL = list(PAPER_GRAPHS)
ALL_SYNTH = list(RMAT_GRAPHS)

_FULL_EDGES = 200_000
_PRESET_SCALE = {"test": 0.02, "bench": 0.2, "full": 1.0}


def standin_shape(name: str, preset: str = "full") -> tuple[int, int]:
    """(n_vertices, n_edges) of the stand-in for ``name`` at ``preset``."""
    scale = _PRESET_SCALE[preset]
    if name in RMAT_GRAPHS:
        spec = RMAT_GRAPHS[name]
        return 2 ** spec["scale"], max(500, int(spec["e_full"] * scale))
    spec = PAPER_GRAPHS[name]
    n_e = max(500, int(_FULL_EDGES * scale))
    # Average degree is *compressed* (√-scaled into [8, 20]) rather than
    # preserved: |E| shrinks ~10000× but k stays at the paper's 64–256,
    # so preserving the paper's average degree would starve |V|/k and
    # κ/d_max — the ratios that drive partitioning behaviour
    # (DESIGN.md §4). The ordering of densities across graphs survives.
    paper_avg = 2.0 * spec["e"] / spec["v"]
    if spec["type"] == "social":
        # denser: HDRF's scatter-on-hubs pathology needs degree room
        avg = float(np.clip(5.0 * np.sqrt(paper_avg), 8.0, 45.0))
    else:
        avg = float(np.clip(3.0 * np.sqrt(paper_avg), 8.0, 20.0))
    n_v = max(100, int(round(2.0 * n_e / avg)))
    return n_v, n_e


def standin_seed(name: str) -> int:
    """The seed :func:`standin_edges` uses for ``name`` when given none."""
    if name in OPTIMALITY_GRAPHS:
        return OPTIMALITY_GRAPHS[name][3]
    # str hash() is salted per process; derive a stable per-name seed.
    return int.from_bytes(name.encode(), "little") % (2**31)


def standin_edges(name: str, preset: str = "full", seed: int | None = None) -> np.ndarray:
    """Deterministic edge stream (numpy ``(m, 2)`` int64) for a catalog graph.

    Social stand-ins: weak communities + global hubs. Web stand-ins:
    strong host-like locality. Synthetic stand-ins: R-MAT. Table-5
    graphs: the first R-MAT instance of their shape from ``seed`` on.
    """
    if seed is None:
        seed = standin_seed(name)
    if name in OPTIMALITY_GRAPHS:
        n_v, n_e, scale, _ = OPTIMALITY_GRAPHS[name]
        return search_rmat(n_v, n_e, scale, seed)
    n_v, n_e = standin_shape(name, preset)
    if name in RMAT_GRAPHS:
        scale = RMAT_GRAPHS[name]["scale"]
        return rmat_edges(scale, n_e, seed=seed)
    spec = PAPER_GRAPHS[name]
    if spec["type"] == "web":
        # strong host locality, hub-mediated cross-host links
        return community_powerlaw(
            n_v, n_e, rho=spec["rho"], n_communities=max(8, n_v // 40),
            p_intra=0.97, hub_fraction=0.0005, hub_pool_frac=0.01,
            shuffle_window=64, seed=seed,
        )
    # social: weaker locality, bridges preferentially hit high-degree
    # vertices (preferential attachment), communities ~40 vertices
    return community_powerlaw(
        n_v, n_e, rho=spec["rho"], n_communities=max(4, n_v // 40),
        p_intra=0.6, hub_fraction=0.003, hub_pool_frac=0.08,
        shuffle_window=256, seed=seed,
    )
