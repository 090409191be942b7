"""Tests for the exact branch-and-bound optimum (Table 5 machinery)."""
import numpy as np
import pytest

from repro.baselines.api import run_partitioner
from repro.core.optimal import optimal_partition
from repro.graphgen.catalog import standin_edges
from repro.graphgen.tiny import OPTIMALITY_GRAPHS, toy_graph
from repro.metrics import replication_factor_np


class TestOptimalPartition:
    def test_triangle_one_partition(self):
        e = np.array([(0, 1), (1, 2), (2, 0)], dtype=np.int64)
        rf, assign = optimal_partition(e, 3, tau=3.0)
        # with slack the whole triangle fits one partition → RF 1
        assert rf == pytest.approx(1.0)
        assert len(set(assign)) == 1

    def test_star_split(self):
        # star with 4 leaves, k=2, cap 2: center must replicate once
        e = np.array([(0, i) for i in range(1, 5)], dtype=np.int64)
        rf, _ = optimal_partition(e, 2)
        assert rf == pytest.approx(6 / 5)  # center 2 + leaves 4 over 5

    def test_matches_bruteforce(self):
        # tiny instance where k^|E| enumeration is feasible
        g = np.random.default_rng(0)
        e = np.unique(np.sort(g.integers(0, 5, (12, 2)), axis=1), axis=0)
        e = e[e[:, 0] != e[:, 1]][:6]
        k = 2
        cap = int(np.ceil(len(e) / k))
        best = None
        for code in range(k ** len(e)):
            assign = [(code // k**i) % k for i in range(len(e))]
            sizes = np.bincount(assign, minlength=k)
            if sizes.max() > cap:
                continue
            rf = replication_factor_np(e, np.array(assign), k)
            best = rf if best is None else min(best, rf)
        rf_bb, _ = optimal_partition(e, k)
        assert rf_bb == pytest.approx(best)

    def test_respects_load_cap(self):
        for name in OPTIMALITY_GRAPHS:
            e = standin_edges(name)
            rf, assign = optimal_partition(e, 4)
            cap = int(np.ceil(len(e) / 4))
            assert np.bincount(assign, minlength=4).max() <= cap

    def test_assignment_achieves_reported_rf(self):
        e = standin_edges("G_alpha")
        rf, assign = optimal_partition(e, 4)
        assert replication_factor_np(e, assign, 4) == pytest.approx(rf)

    @pytest.mark.parametrize("gname", ["G_alpha", "G_beta", "G_gamma"])
    def test_no_partitioner_beats_optimum(self, gname):
        e = standin_edges(gname)
        rf_opt, _ = optimal_partition(e, 4)
        for meth in ["S5P", "CLUGP", "2PS-L", "HDRF"]:
            part, _ = run_partitioner(e, meth, 4)
            assert replication_factor_np(e, part, 4) >= rf_opt - 1e-9

    def test_toy_graph_feasible(self):
        rf, _ = optimal_partition(toy_graph(), 3)
        assert 1.0 <= rf <= 3.0
