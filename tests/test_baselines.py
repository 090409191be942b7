"""Tests for every baseline partitioner and the uniform runner."""
import numpy as np
import pytest

from repro.baselines.api import PARTITIONERS, run_partitioner
from repro.baselines.gamebased import BudgetExceeded, rmgp_partition
from repro.baselines.hashing import grid_partition
from repro.core.game import initial_assignment
from repro.core.postprocess import max_load
from repro.graphgen.catalog import standin_edges
from repro.metrics import load_balance_np, replication_factor_np

STREAMING = ["Random", "DBH", "Grid", "Greedy", "HDRF", "2PS-L", "CLUGP", "S5P"]
ALL = list(PARTITIONERS)

#: Degenerate streams every partitioner must survive, with the k to run at.
DEGENERATE = {
    "empty": (np.zeros((0, 2), dtype=np.int64), 8),
    "self-loops": (np.array([[0, 0], [0, 1], [1, 1], [2, 2], [1, 2]]), 8),
    "duplicates": (np.array([[0, 1]] * 5 + [[1, 2]] * 3 + [[0, 1]]), 8),
    "k > |E|": (np.array([[0, 1], [1, 2], [2, 0]]), 16),
}


@pytest.fixture(scope="module")
def lj():
    return standin_edges("LJ", "test")


@pytest.fixture(scope="module")
def web():
    return standin_edges("IN", "test")


class TestValidity:
    @pytest.mark.parametrize("name", ALL)
    def test_assigns_every_edge_in_range(self, name, lj):
        for label, (edges, k) in {"LJ": (lj, 8), **DEGENERATE}.items():
            part, _ = run_partitioner(edges, name, k)
            assert len(part) == len(edges), label
            assert ((part >= 0) & (part < k)).all(), label

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic(self, name, lj):
        a, _ = run_partitioner(lj, name, 8)
        b, _ = run_partitioner(lj, name, 8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["Greedy", "HDRF", "2PS-L", "CLUGP", "S5P"])
    def test_capped_methods_respect_balance(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert np.bincount(part, minlength=8).max() <= max_load(len(lj), 8)

    @pytest.mark.parametrize("name", ALL)
    def test_rf_at_least_one(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_run_stats(self, lj):
        _, st = run_partitioner(lj, "DBH", 8)
        assert st.name == "DBH" and st.k == 8
        assert st.wall_s >= 0 and st.peak_mem_mb > 0


class TestHashing:
    def test_random_roughly_uniform(self, lj):
        part, _ = run_partitioner(lj, "Random", 8)
        sizes = np.bincount(part, minlength=8)
        assert sizes.min() > 0.7 * len(lj) / 8

    def test_dbh_beats_random_on_powerlaw(self, lj):
        dbh, _ = run_partitioner(lj, "DBH", 8)
        rnd, _ = run_partitioner(lj, "Random", 8)
        assert replication_factor_np(lj, dbh, 8) < replication_factor_np(lj, rnd, 8)

    def test_grid_uses_square(self, lj):
        part = grid_partition(lj, 9)
        assert part.max() < 9
        part16 = grid_partition(lj, 16)
        assert part16.max() < 16

    def test_grid_bounds_replicas(self, lj):
        # each vertex appears in ≤ 2√k−1 partitions
        part = grid_partition(lj, 16)
        s = 4
        reps = {}
        for (u, v), p in zip(lj, part):
            reps.setdefault(u, set()).add(p)
            reps.setdefault(v, set()).add(p)
        assert max(len(x) for x in reps.values()) <= 2 * s - 1


class TestClusteringBaselines:
    def test_pack_clusters_balanced(self):
        # 2PS-L packs its clusters onto partitions with initial_assignment
        vols = np.ones(64)
        c2p = initial_assignment(vols, 4)
        loads = np.bincount(c2p, weights=vols, minlength=4)
        assert loads.max() - loads.min() <= 1

    def test_twops_linear_in_k(self, lj):
        # scoring is k-independent: candidate set is only the endpoints'
        # cluster partitions; just verify output validity across k
        for k in (4, 16, 64):
            part, _ = run_partitioner(lj, "2PS-L", k)
            assert part.max() < k

    def test_clugp_beats_hashing_on_web(self, web):
        clugp, _ = run_partitioner(web, "CLUGP", 8)
        rnd, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, clugp, 8) < replication_factor_np(
            web, rnd, 8
        )


class TestGamebased:
    def test_rmgp_memory_budget(self, lj):
        with pytest.raises(BudgetExceeded):
            rmgp_partition(lj, 8, max_vertices=10)

    def test_rmgp_time_budget(self, lj):
        with pytest.raises(BudgetExceeded):
            rmgp_partition(lj, 8, time_budget_s=0.0)

    @pytest.mark.parametrize("name", ["RMGP", "MDSGP", "CVSP"])
    def test_gamebased_validity(self, name, web):
        part, _ = run_partitioner(web, name, 8)
        assert part.max() < 8 and len(part) == len(web)

    def test_mdsgp_beats_random(self, web):
        m, _ = run_partitioner(web, "MDSGP", 8)
        r, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, m, 8) < replication_factor_np(web, r, 8)


class TestOffline:
    def test_ne_quality_on_web(self, web):
        # offline NE should beat the hashing family on a web graph
        ne, _ = run_partitioner(web, "NE", 8)
        rnd, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, ne, 8) < replication_factor_np(
            web, rnd, 8
        )


class TestPaperShape:
    """The Table 3 ordering claims, at test scale (seeded, deterministic)."""

    def test_s5p_beats_hashing_everywhere(self):
        for name in ["LJ", "IN", "OK"]:
            e = standin_edges(name, "test")
            s5p, _ = run_partitioner(e, "S5P", 16)
            rnd, _ = run_partitioner(e, "Random", 16)
            assert replication_factor_np(e, s5p, 16) < replication_factor_np(
                e, rnd, 16
            )

    def test_clustering_methods_beat_hdrf_on_web(self):
        # the Table 3 web crossover: clustering-refinement ≪ HDRF
        e = standin_edges("IN", "test")
        s5p, _ = run_partitioner(e, "S5P", 16)
        hdrf, _ = run_partitioner(e, "HDRF", 16)
        assert replication_factor_np(e, s5p, 16) < replication_factor_np(
            e, hdrf, 16
        ) * 1.05

    def test_s5p_beats_clugp_on_social(self):
        e = standin_edges("OK", "test")
        s5p, _ = run_partitioner(e, "S5P", 16)
        clugp, _ = run_partitioner(e, "CLUGP", 16)
        assert replication_factor_np(e, s5p, 16) < replication_factor_np(
            e, clugp, 16
        )
