"""Tests for the Stackelberg game (Algorithm 2) and its theory (Section 5.4)."""
from functools import cache

import numpy as np
import pytest

from repro.core.clustering import skewness_aware_clustering
from repro.core.game import (
    WINDOW_CELLS,
    ClusterGraph,
    delta_max,
    initial_assignment,
    social_welfare,
    stackelberg_game,
    stackelberg_initial_assignment,
)
from repro.core.bounds import poa_bound
from repro.core.s5p import s5p_partition_np
from repro.core.theta import CMSTheta, ExactTheta
from repro.graphgen.catalog import standin_edges


# Oracles: the cost and best response of Eq. (6) read straight from the
# neighbour lists, and the initial assignments one item at a time, which
# the game's set-up and mass-matrix sweep must reproduce.


def individual_cost(g, c2p, loads, c, k, delta):
    """Eq. (6) cost of cluster ``c`` under the current profile."""
    nbrs, w = g.neighbors(c)
    f = float(w[c2p[nbrs] != c2p[c]].sum())
    return delta / k * g.sizes[c] * loads[c2p[c]] + (f + g.sizes[c]) / k


def total_individual_cost(g, c2p, k, delta):
    """Σ_c S_c(P(c)) — equals :func:`social_welfare` by Theorem 4."""
    loads = np.bincount(c2p, weights=g.sizes, minlength=k)
    return sum(individual_cost(g, c2p, loads, c, k, delta) for c in range(g.n))


def _best_response(g, c, c2p_snapshot, loads_snapshot, k, delta):
    """argmin_p S_c(p) against a frozen profile; ties keep the current p."""
    cur = c2p_snapshot[c]
    size_c = g.sizes[c]
    nbrs, w = g.neighbors(c)
    w_in_p = np.bincount(c2p_snapshot[nbrs], weights=w, minlength=k)
    cut_cost = (w_in_p.sum() - w_in_p) / k
    loads_wo = loads_snapshot.copy()
    loads_wo[cur] -= size_c
    load_cost = delta / k * size_c * (loads_wo + size_c)
    cost = load_cost + cut_cost
    cost[cur] -= 1e-9  # strict-improvement tie-break → convergence
    return int(np.argmin(cost))


def synchronous_round(g, c2p, k, delta):
    """One fully synchronous best-response round (all clusters, frozen
    snapshot): the reference the equilibrium-stability test checks a
    finished game against."""
    loads = np.bincount(c2p, weights=g.sizes, minlength=k).astype(np.float64)
    out = c2p.copy()
    for c in range(g.n):
        out[c] = _best_response(g, c, c2p, loads, k, delta)
    return out


def _reference_initial_assignment(sizes, k):
    """:func:`initial_assignment` as one ``argmin`` of the loads per item."""
    order = np.argsort(-sizes, kind="stable")
    n_placed = int(np.count_nonzero(sizes > 0))
    loads = np.zeros(k)
    c2p = np.zeros(len(sizes), dtype=np.int64)
    for c in order[:n_placed]:
        p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += sizes[c]
    c2p[order[n_placed:]] = int(np.argmin(loads))
    return c2p


def _reference_stackelberg_initial_assignment(g, cluster_is_head, k):
    """:func:`stackelberg_initial_assignment` with one ``bincount`` of the
    placed neighbours' masses per follower."""
    c2p = np.full(g.n, -1, dtype=np.int64)
    heads = np.flatnonzero(cluster_is_head)
    c2p[heads] = _reference_initial_assignment(g.sizes[heads], k)
    loads = np.bincount(c2p[heads], weights=g.sizes[heads], minlength=k)
    tails = np.flatnonzero(~cluster_is_head & g.active)
    for c in tails[np.argsort(-g.sizes[tails], kind="stable")]:
        nbrs, w = g.neighbors(int(c))
        placed = c2p[nbrs] >= 0
        if placed.any():
            mass = np.bincount(c2p[nbrs[placed]], weights=w[placed], minlength=k)
            p = int(np.argmax(mass))
        else:
            p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += g.sizes[c]
    c2p[~cluster_is_head & ~g.active] = int(np.argmin(loads))
    return c2p


def _setup(name="LJ", k=8):
    e = standin_edges(name, "test")
    cl = skewness_aware_clustering(e, k)
    th = ExactTheta()
    cu, cv = cl.cut_pairs
    th.add_pairs(cu, cv)
    return cl, th


@pytest.fixture(scope="module")
def lj_setup():
    return _setup()


class TestClusterGraph:
    def test_adjacency_symmetric(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        nbrs, w = g.neighbors(int(th.pairs()[0][0]))
        assert len(nbrs) == len(w)

    def test_total_weight_consistency(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        _, _, w = th.pairs()
        assert g.W.sum() == pytest.approx(2 * w.sum())

    def test_cut_weight_bounds(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        _, _, w = th.pairs()
        same = np.zeros(cl.n_clusters, dtype=np.int64)  # all in one partition
        assert g.cut_weight(same) == 0.0
        spread = np.arange(cl.n_clusters) % 8
        assert 0 <= g.cut_weight(spread) <= w.sum()


class TestDelta:
    def test_delta_max_positive(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        assert delta_max(g, 8) > 0

    def test_delta_in_eq11_range(self, lj_setup):
        # Eq. 11: 1/Σ|c| ≤ δ ≤ k·Σ(F+|c|)/(Σ|c|)²
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        d = delta_max(g, 8)
        total = g.sizes.sum()
        assert d >= 1.0 / total

    def test_empty_graph_delta(self):
        g = ClusterGraph(0, np.zeros(0), (np.zeros(0, np.int64),) * 3)
        assert delta_max(g, 4) == 1.0


class TestInitialAssignment:
    def test_balanced(self):
        sizes = np.ones(100)
        c2p = initial_assignment(sizes, 4)
        loads = np.bincount(c2p, weights=sizes, minlength=4)
        assert loads.max() - loads.min() <= 1

    def test_within_range(self):
        c2p = initial_assignment(np.arange(50, dtype=float), 8)
        assert c2p.min() >= 0 and c2p.max() < 8

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_ties_match_reference(self, k):
        sizes = np.array([3.0, 3.0, 0.0, 2.0, 2.0, 2.0, 1.0, 0.0, 5.0, 1.0])
        np.testing.assert_array_equal(
            initial_assignment(sizes, k), _reference_initial_assignment(sizes, k)
        )

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    def test_standins_match_reference(self, name, k):
        n, sizes, head, pairs = _game_inputs(name, k, True)
        g = ClusterGraph(n, sizes, pairs)
        np.testing.assert_array_equal(
            stackelberg_initial_assignment(g, head, k),
            _reference_stackelberg_initial_assignment(g, head, k),
        )
        np.testing.assert_array_equal(
            initial_assignment(g.sizes, k), _reference_initial_assignment(g.sizes, k)
        )


class TestTheorem4:
    """Social welfare equals the sum of individual costs (Theorem 4)."""

    @pytest.mark.parametrize("name,k", [("LJ", 4), ("LJ", 8), ("IN", 8), ("OK", 16)])
    def test_welfare_equals_total_cost(self, name, k):
        cl, th = _setup(name, k)
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        delta = delta_max(g, k)
        rng = np.random.default_rng(0)
        c2p = rng.integers(0, k, cl.n_clusters)
        assert social_welfare(g, c2p, k, delta) == pytest.approx(
            total_individual_cost(g, c2p, k, delta), rel=1e-9
        )


class TestConvergence:
    def test_sequential_converges(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8
        )
        assert r.converged
        assert r.rounds <= 64

    def test_equilibrium_is_stable(self, lj_setup):
        # one more synchronous round from an equilibrium changes nothing
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8
        )
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        after = synchronous_round(g, r.c2p, 8, r.delta)
        np.testing.assert_array_equal(after, r.c2p)

    def test_welfare_improves_over_initial(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        k = 8
        delta = delta_max(g, k)
        init = initial_assignment(g.sizes, k)
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
        )
        assert r.welfare <= social_welfare(g, init, k, delta) + 1e-9

    def test_batch_mode_runs(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            batch_size=256,
        )
        assert r.c2p.max() < 8

    def test_one_stage_mode(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            one_stage=True,
        )
        assert r.converged

    def test_max_rounds_respected(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            max_rounds=1,
        )
        assert r.rounds == 1


class TestTheorem5:
    """Price of anarchy ≤ k+1 (checked against the Eq. 15 lower bound)."""

    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_poa_bound(self, name, k):
        cl, th = _setup(name, k)
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
        )
        # Eq. 15: OPT ≥ δ·(Σ|c|/k)² + Σ|c|/k
        tot = g.sizes.sum()
        opt_lb = r.delta * (tot / k) ** 2 + tot / k
        assert r.welfare / opt_lb <= poa_bound(k)

    def test_poa_formula(self):
        assert poa_bound(32) == 33.0


def _reference_game(n_clusters, sizes, cluster_is_head, theta_pairs, k, *,
                    batch_size=1, max_rounds=64, one_stage=False):
    """The game as every player rescanning its neighbours through
    :func:`_best_response`, one batch after another, from the reference
    initial assignments. Returns (c2p, rounds, converged, welfare, moves
    per round)."""
    g = ClusterGraph(n_clusters, sizes, theta_pairs)
    delta = delta_max(g, k)
    if one_stage:
        c2p = _reference_initial_assignment(g.sizes, k)
    else:
        c2p = _reference_stackelberg_initial_assignment(g, cluster_is_head, k)
    loads = np.bincount(c2p, weights=g.sizes, minlength=k).astype(np.float64)
    if one_stage:
        stages = [np.flatnonzero(g.active)]
    else:
        stages = [
            np.flatnonzero(g.active & cluster_is_head),
            np.flatnonzero(g.active & ~cluster_is_head),
        ]
    moves_per_round = []
    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        moves = 0
        for stage in stages:
            for start in range(0, len(stage), batch_size):
                batch = stage[start : start + batch_size]
                if batch_size > 1:
                    snap_c2p = c2p.copy()
                    snap_loads = loads.copy()
                else:
                    snap_c2p = c2p
                    snap_loads = loads
                for c in batch:
                    p = _best_response(g, int(c), snap_c2p, snap_loads, k, delta)
                    if p != c2p[c]:
                        loads[c2p[c]] -= g.sizes[c]
                        loads[p] += g.sizes[c]
                        c2p[c] = p
                        moves += 1
        moves_per_round.append(moves)
        if not moves:
            converged = True
            break
    return c2p, rounds, converged, social_welfare(g, c2p, k, delta), moves_per_round


@cache
def _game_inputs(name, k, use_cms, preset="test", clugp=False):
    """The game's inputs from S5P's clustering, or from CLUGP's (β = ∞,
    full clusters split, exact Θ; CLUGP plays ``one_stage``)."""
    e = standin_edges(name, preset)
    if clugp:
        cl = skewness_aware_clustering(e, k, beta=np.inf, split=True)
    else:
        cl = skewness_aware_clustering(e, k)
    th = CMSTheta() if use_cms else ExactTheta()
    th.add_pairs(*cl.cut_pairs)
    return cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs()


def _assert_matches_reference(args, k, **kw):
    r = stackelberg_game(*args, k, **kw)
    c2p, rounds, converged, welfare, moves = _reference_game(*args, k, **kw)
    np.testing.assert_array_equal(r.c2p, c2p)
    assert (r.rounds, r.converged, r.welfare, r.moves_per_round) == (
        rounds, converged, welfare, moves
    )
    return r


class TestReferenceLoop:
    """The windowed mass-matrix sweep of :func:`stackelberg_game`
    reproduces the neighbour-rescanning loop bit for bit."""

    @pytest.mark.parametrize("use_cms", [True, False], ids=["cms", "exact"])
    @pytest.mark.parametrize(
        "mode",
        [
            {}, {"one_stage": True}, {"batch_size": 256},
            # Batches that do not divide the stage lengths.
            {"batch_size": 3}, {"batch_size": 7},
            # Rounds cut short, mid-dynamics.
            {"max_rounds": 1}, {"max_rounds": 2},
        ],
        ids=["two_stage", "one_stage", "batch256", "batch3", "batch7", "rounds1", "rounds2"],
    )
    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    def test_standins(self, name, k, mode, use_cms):
        _assert_matches_reference(_game_inputs(name, k, use_cms), k, **mode)

    @pytest.mark.parametrize(
        "mode",
        [{}, {"one_stage": True}, {"batch_size": 7}, {"batch_size": 256}],
        ids=["two_stage", "one_stage", "batch7", "batch256"],
    )
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    def test_bench_k256(self, name, mode):
        # WINDOW_CELLS // 256 = 64 players: the cap, not the stage,
        # bounds the window, and a batch of 256 overruns it alone.
        args = _game_inputs(name, 256, True, "bench")
        assert ClusterGraph(args[0], args[1], args[3]).active.sum() > WINDOW_CELLS // 256
        _assert_matches_reference(args, 256, **mode)

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    def test_clugp_inputs(self, name, k):
        # No leaders: CLUGP's clusters all play in one stage.
        _assert_matches_reference(_game_inputs(name, k, False, clugp=True), k, one_stage=True)

    def test_players_reach_stats(self):
        args = _game_inputs("IN", 8, True)
        n_active = int(ClusterGraph(args[0], args[1], args[3]).active.sum())
        assert stackelberg_game(*args, 8).n_players == n_active
        _, st = s5p_partition_np(standin_edges("IN", "test"), 8)
        assert st.game_players == n_active

    def test_no_theta_pairs(self):
        empty = np.zeros(0, dtype=np.int64)
        sizes = np.array([5.0, 3.0, 0.0, 2.0, 2.0])
        head = np.array([True, False, False, False, True])
        for kw in ({}, {"one_stage": True}, {"batch_size": 2}):
            r = _assert_matches_reference((5, sizes, head, (empty, empty, empty)), 2, **kw)
            assert r.converged

    def test_empty_active_cluster(self):
        # Cluster 1 holds no edge but has Θ mass (|c| = 0, W > 0): it
        # plays, moves no load, and its moves still shift its neighbours'
        # cut costs. Cluster 5 is dead.
        sizes = np.array([4.0, 0.0, 3.0, 1.0, 2.0, 0.0])
        head = np.array([True, False, False, False, True, False])
        pairs = (np.array([0, 1, 1, 2]), np.array([1, 2, 3, 4]), np.array([3, 5, 2, 1]))
        for kw in ({}, {"one_stage": True}, {"batch_size": 3}):
            _assert_matches_reference((6, sizes, head, pairs), 3, **kw)

    def test_k_above_active_clusters(self):
        args = _game_inputs("IN", 8, False)
        k = 2 * int(ClusterGraph(args[0], args[1], args[3]).active.sum())
        for kw in ({}, {"one_stage": True}, {"batch_size": 256}):
            r = _assert_matches_reference(args, k, **kw)
            assert r.c2p.max() < k

    def test_empty_stream(self):
        part, st = s5p_partition_np(np.zeros((0, 2), dtype=np.int64), 8)
        assert len(part) == 0
        assert st.game_converged and st.game_moves == 0

    def test_moves_reach_stats(self):
        e = standin_edges("IN", "test")
        _, st = s5p_partition_np(e, 8)
        cl = skewness_aware_clustering(e, 8)
        th = CMSTheta()
        th.add_pairs(*cl.cut_pairs)
        _, rounds, _, _, moves = _reference_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8
        )
        assert st.game_rounds == rounds
        assert st.game_moves == sum(moves) > 0
