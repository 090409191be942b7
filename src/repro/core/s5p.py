"""S5P: the full Skewness-aware Vertex-cut Streaming Partitioner.

Pipeline (Figure 2): skewness-aware clustering (Alg. 1) → Θ →
two-stage Stackelberg game over clusters (Alg. 2) → edge-level
postprocessing (Alg. 3). This is the one place that runs the stages in
sequence: CLUGP is the same pipeline at other arguments
(:mod:`repro.baselines.clugp`). Jobs reach it through the partitioner
registry in :mod:`repro.baselines.api`, whose Spark wrapper does the
DataFrame round trip.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusteringResult, skewness_aware_clustering
from .game import GameResult, stackelberg_game
from .postprocess import assign_edges
from .theta import CMSTheta, ExactTheta


@dataclass
class S5PStats:
    """Diagnostics for one S5P run (feeds Tables 3–4 and the tests)."""

    n_vertices: int = 0
    n_edges: int = 0
    n_clusters: int = 0
    n_head_clusters: int = 0
    xi: float = 0.0
    kappa: float = 0.0
    delta: float = 0.0
    game_rounds: int = 0
    game_converged: bool = False
    game_moves: int = 0  # Σ GameResult.moves_per_round
    game_players: int = 0  # GameResult.n_players: the active clusters
    theta_bytes: int = 0
    timings: dict[str, float] = field(default_factory=dict)


def s5p_partition_np(
    edges: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
    beta: float = 1.0,
    use_cms: bool = True,
    batch_size: int = 1,
    max_rounds: int = 64,
    one_stage: bool = False,
    bounded: bool = False,
    split: bool = False,
) -> tuple[np.ndarray, S5PStats]:
    """Partition an arrival-ordered edge array into ``k`` partitions.

    ``bounded=True`` selects S5P-B (global degrees everywhere, no κ and
    no maxLoad — the variant of Theorem 2). ``one_stage=True`` collapses
    the Stackelberg structure (ablation). ``split`` is clustering's
    splitting of full tail clusters (CLUGP's). Returns (partition per
    edge, stats).
    """
    stats = S5PStats(n_edges=len(edges))
    t0 = time.perf_counter()
    clustering: ClusteringResult = skewness_aware_clustering(
        edges,
        k,
        beta=beta,
        kappa=np.inf if bounded else None,
        use_local_degrees=not bounded,
        split=split,
    )
    stats.timings["clustering"] = time.perf_counter() - t0
    stats.n_vertices = clustering.n_vertices
    stats.n_clusters = clustering.n_clusters
    stats.n_head_clusters = int(clustering.cluster_is_head.sum())
    stats.xi = clustering.xi
    stats.kappa = clustering.kappa

    t0 = time.perf_counter()
    theta = CMSTheta() if use_cms else ExactTheta()
    for cu, cv in clustering.cut_pair_blocks():
        theta.add_pairs(cu, cv)
    del cu, cv  # the last block, often the largest, is not needed past Θ
    stats.theta_bytes = theta.nbytes
    stats.timings["theta"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pairs = theta.pairs()
    del theta  # the game reads only the pair arrays
    game: GameResult = stackelberg_game(
        clustering.n_clusters,
        clustering.cluster_sizes,
        clustering.cluster_is_head,
        pairs,
        k,
        batch_size=batch_size,
        max_rounds=max_rounds,
        one_stage=one_stage,
    )
    del pairs  # nor does Alg. 3 read them
    stats.timings["game"] = time.perf_counter() - t0
    stats.delta = game.delta
    stats.game_rounds = game.rounds
    stats.game_converged = game.converged
    stats.game_moves = sum(game.moves_per_round)
    stats.game_players = game.n_players

    t0 = time.perf_counter()
    part = assign_edges(
        clustering.edge_cu,
        clustering.edge_cv,
        clustering.edge_is_head,
        game.c2p,
        k,
        tau=np.inf if bounded else tau,
    )
    stats.timings["postprocess"] = time.perf_counter() - t0
    return part, stats
