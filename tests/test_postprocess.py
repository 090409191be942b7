"""Tests for postprocessing (Algorithm 3) and Theorem 1."""
import math

import numpy as np
import pytest

from repro.core.bounds import tau_bound
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges, max_load
from repro.core.stream import STREAM_CHUNK
from repro.core.theta import ExactTheta
from repro.graphgen.catalog import standin_edges
from repro.metrics import load_balance_np


def _pipeline(name, k, tau=1.0):
    e = standin_edges(name, "test")
    cl = skewness_aware_clustering(e, k)
    th = ExactTheta()
    cu, cv = cl.cut_pairs
    th.add_pairs(cu, cv)
    gr = stackelberg_game(
        cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
    )
    part = assign_edges(
        cl.edge_cu, cl.edge_cv, cl.edge_is_head, gr.c2p, k, tau=tau
    )
    return e, cl, gr, part


class TestMaxLoad:
    def test_formula(self):
        assert max_load(100, 8) == 13  # ceil(100/8)
        assert max_load(100, 8, tau=1.2) == 15

    def test_theorem1_tau_bound(self):
        # Theorem 1: τ ≤ k·L/|E|; with L = ⌈t|E|/k⌉ the realized balance
        # is bounded by the target t (plus the ceiling's rounding)
        for n_e, k, t in [(1000, 8, 1.0), (997, 16, 1.1), (40, 7, 1.5)]:
            bound = tau_bound(k, max_load(n_e, k, t), n_e)
            assert bound >= t - 1e-9
            assert bound <= t + k / n_e + 1e-9


class TestAssignEdges:
    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4), ("OK", 16), ("G1", 8)])
    def test_all_edges_assigned_in_range(self, name, k):
        e, _, _, part = _pipeline(name, k)
        assert len(part) == len(e)
        assert part.min() >= 0 and part.max() < k

    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4), ("OK", 16)])
    def test_load_cap_respected(self, name, k):
        e, _, _, part = _pipeline(name, k)
        cap = max_load(len(e), k, 1.0)
        assert np.bincount(part, minlength=k).max() <= cap

    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4)])
    def test_balance_within_tau(self, name, k):
        e, _, _, part = _pipeline(name, k)
        # paper: "no partition contains more than ⌈τ|E|/k⌉ edges"
        assert load_balance_np(part, k) <= tau_bound(k, max_load(len(e), k), len(e))

    def test_looser_tau_gives_more_slack(self):
        e, _, _, part_tight = _pipeline("LJ", 8, tau=1.0)
        _, _, _, part_loose = _pipeline("LJ", 8, tau=2.0)
        cap_loose = max_load(len(e), 8, 2.0)
        assert np.bincount(part_loose, minlength=8).max() <= cap_loose

    def test_infinite_tau_no_cap(self):
        e, cl, gr, _ = _pipeline("LJ", 8)
        part = assign_edges(
            cl.edge_cu, cl.edge_cv, cl.edge_is_head, gr.c2p, 8, tau=np.inf
        )
        # without a cap every edge lands at one of its endpoint partitions
        pu = gr.c2p[cl.edge_cu]
        pv = gr.c2p[cl.edge_cv]
        assert ((part == pu) | (part == pv)).all()

    def test_same_partition_edges_stay(self):
        e, cl, gr, part = _pipeline("IN", 4)
        pu = gr.c2p[cl.edge_cu]
        pv = gr.c2p[cl.edge_cv]
        cap = max_load(len(e), 4)
        same = pu == pv
        # when both endpoint clusters agree and the partition had room,
        # the edge must be there or the partition was full at that time;
        # globally the overwhelming majority must land on agreement
        frac = (part[same] == pu[same]).mean()
        assert frac > 0.5

    def test_deterministic(self):
        _, _, _, a = _pipeline("LJ", 8)
        _, _, _, b = _pipeline("LJ", 8)
        np.testing.assert_array_equal(a, b)

    def test_overflow_scan_direction(self):
        # head overflow scans low partitions first, tail high first
        cu = np.zeros(10, dtype=np.int64)
        cv = np.zeros(10, dtype=np.int64)
        c2p = np.array([0], dtype=np.int64)
        head = np.array([True] * 5 + [False] * 5)
        part = assign_edges(cu, cv, head, c2p, 4, tau=0.8)  # cap ⌈0.8·10/4⌉ = 2
        # partition 0 takes the first 2; overflow: heads → 1,2 low-first;
        # tails → 3,2 high-first
        assert (part[:2] == 0).all()
        assert set(part[2:5]) <= {1, 2}
        assert 3 in set(part[5:])


def _full_scan_reference(edge_cu, edge_cv, edge_is_head, c2p, k, tau):
    """Algorithm 3 as written: a fresh first→last / last→first scan per overflow."""
    n_e = len(edge_cu)
    cap = max_load(n_e, k, tau) if math.isfinite(tau) else n_e + 1
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    for i in range(n_e):
        a, b = c2p[edge_cu[i]], c2p[edge_cv[i]]
        if loads[a] >= cap and loads[b] >= cap:
            scan = range(k) if edge_is_head[i] else range(k - 1, -1, -1)
            free = [p for p in scan if loads[p] < cap]
            p = free[0] if free else int(np.argmin(loads))
        elif loads[a] > loads[b]:
            p = b
        else:
            p = a
        out[i] = p
        loads[p] += 1
    return out


class TestOverflowCursors:
    @pytest.mark.parametrize("tau", [0.5, 0.8, 1.0, np.inf])
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_matches_full_scan(self, k, tau):
        rng = np.random.default_rng(1000 * k + int(10 * min(tau, 9)))
        n_e, n_c = STREAM_CHUNK + 1500, 40  # crosses a chunk boundary
        # skewed c2p: most clusters on a few partitions, so caps bind early
        c2p = np.minimum(rng.geometric(0.4, n_c) - 1, k - 1).astype(np.int64)
        cu = rng.integers(0, n_c, n_e)
        cv = rng.integers(0, n_c, n_e)
        head = rng.random(n_e) < 0.3
        part = assign_edges(cu, cv, head, c2p, k, tau=tau)
        ref = _full_scan_reference(cu, cv, head, c2p, k, tau)
        np.testing.assert_array_equal(part, ref)
        assert part.dtype == np.int64
        if math.isfinite(tau):
            # τ < 1 leaves room for fewer than |E| edges: the spill runs
            spilled = np.bincount(part, minlength=k).max() > max_load(n_e, k, tau)
            assert spilled == (tau < 1)
