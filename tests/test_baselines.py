"""Tests for every baseline partitioner and the uniform runner."""
import hashlib

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

    @pytest.mark.parametrize(
        "name", ["Greedy", "HDRF", "2PS-L", "CLUGP", "NE", "MDSGP", "S5P"]
    )
    def test_capped_methods_respect_balance(self, name, lj):
        for k in (8, 64):
            part, _ = run_partitioner(lj, name, k)
            assert np.bincount(part, minlength=k).max() <= max_load(len(lj), k), k

    @pytest.mark.parametrize("name", ["Greedy", "HDRF", "MDSGP", "2PS-L"])
    def test_spill_to_least_loaded(self, name, lj):
        # τ < 1: once every partition is at the cap, the rest of the
        # stream spreads evenly instead of piling onto one partition
        part, _ = run_partitioner(lj, name, 8, tau=0.5)
        assert np.bincount(part, minlength=8).max() <= max_load(len(lj), 8)

    @pytest.mark.parametrize("name", ALL)
    def test_rf_at_least_one(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_run_stats(self, lj):
        _, st = run_partitioner(lj, "DBH", 8)
        assert st.name == "DBH" and st.k == 8
        assert st.peak_mem_mb > 0


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


#: (partitioner, graph, preset, k) -> first 16 hex digits of the SHA-256 of
#: the partition's bytes, for every partitioner but S5P (``test_s5p.py`` pins
#: it). Pinned from 2PS-L's and CLUGP's numpy-indexed clustering loops,
#: before they moved onto Alg. 1's kernel. On LJ ``test`` 2PS-L's inclusive
#: cap binds, and CLUGP splits clusters; the ``bench`` cells stream more
#: than one conversion chunk. NE's LJ and OK cells at k=64 have leftover
#: edges that spill past the last partition's cap.
PINNED = {
    ("Random", "LJ", "test", 8): "8c9f2d56d351ff23",
    ("Random", "LJ", "test", 64): "e52ad2831112e8fb",
    ("Random", "IN", "test", 8): "8c9f2d56d351ff23",
    ("Random", "IN", "test", 64): "e52ad2831112e8fb",
    ("Random", "OK", "test", 8): "8c9f2d56d351ff23",
    ("Random", "OK", "test", 64): "e52ad2831112e8fb",
    ("DBH", "LJ", "test", 8): "d98e64100e6269d2",
    ("DBH", "LJ", "test", 64): "675da54f1603ec1d",
    ("DBH", "IN", "test", 8): "7f2b11e7300abaf1",
    ("DBH", "IN", "test", 64): "140e03ed47cb4d92",
    ("DBH", "OK", "test", 8): "46dcea33fe353a0f",
    ("DBH", "OK", "test", 64): "5a7bee9bb0cbe8c7",
    ("Grid", "LJ", "test", 8): "54852cdf05131279",
    ("Grid", "LJ", "test", 64): "e19b288d658f2f83",
    ("Grid", "IN", "test", 8): "e1ef0b2c6a0df42b",
    ("Grid", "IN", "test", 64): "c27272e1b9d2917b",
    ("Grid", "OK", "test", 8): "c8a7e18158a84020",
    ("Grid", "OK", "test", 64): "039aadcb0e3e3c6b",
    ("Greedy", "LJ", "test", 8): "f6f507ef8489346f",
    ("Greedy", "LJ", "test", 64): "b9d6c2a3cfb7eafc",
    ("Greedy", "IN", "test", 8): "3a86a9be5c659db7",
    ("Greedy", "IN", "test", 64): "ccde469b8be04e7c",
    ("Greedy", "OK", "test", 8): "7ecbdc40ece0d926",
    ("Greedy", "OK", "test", 64): "2a9bdd00530f0018",
    ("HDRF", "LJ", "test", 8): "069cdb7f88c1f677",
    ("HDRF", "LJ", "test", 64): "52704750f9d1c0eb",
    ("HDRF", "IN", "test", 8): "b6a59be4cdd581a8",
    ("HDRF", "IN", "test", 64): "dbcb4b5915c8b68c",
    ("HDRF", "OK", "test", 8): "7ccf591e0e470458",
    ("HDRF", "OK", "test", 64): "d9a6a56635fe4050",
    ("2PS-L", "LJ", "test", 8): "7156527da6939b29",
    ("2PS-L", "LJ", "test", 64): "4459548e1358b0c4",
    ("2PS-L", "IN", "test", 8): "9bc6f0560a05eba0",
    ("2PS-L", "IN", "test", 64): "94fa1eeca6b710f9",
    ("2PS-L", "OK", "test", 8): "31e2f32420486fee",
    ("2PS-L", "OK", "test", 64): "e0506969126b8da0",
    ("CLUGP", "LJ", "test", 8): "57dd626309832517",
    ("CLUGP", "LJ", "test", 64): "bd9373b9322c7829",
    ("CLUGP", "IN", "test", 8): "c1726314d489f699",
    ("CLUGP", "IN", "test", 64): "821fd90158a56570",
    ("CLUGP", "OK", "test", 8): "b7ed89b71a745ec4",
    ("CLUGP", "OK", "test", 64): "9bda162779095e3c",
    ("NE", "LJ", "test", 8): "dae81aa4a9a89f98",
    ("NE", "LJ", "test", 64): "d25b4c47cc99892b",
    ("NE", "IN", "test", 8): "aa3b02927c54654e",
    ("NE", "IN", "test", 64): "3786c90f26ac2e31",
    ("NE", "OK", "test", 8): "852657f9c6821b53",
    ("NE", "OK", "test", 64): "3d5268ccbfd2432e",
    ("RMGP", "LJ", "test", 8): "0c54f2b475f1e87f",
    ("RMGP", "LJ", "test", 64): "b3ca75a1f72ef78b",
    ("RMGP", "IN", "test", 8): "26fa4b3902f4cce8",
    ("RMGP", "IN", "test", 64): "b0eb79f9c7b0cee8",
    ("RMGP", "OK", "test", 8): "ff5a26c8ccb04797",
    ("RMGP", "OK", "test", 64): "ac9cad6da4274d8c",
    ("MDSGP", "LJ", "test", 8): "635793df8b9cfa9a",
    ("MDSGP", "LJ", "test", 64): "d4ed2958117737b4",
    ("MDSGP", "IN", "test", 8): "c8730209ae5cde31",
    ("MDSGP", "IN", "test", 64): "e523b5fae5d64a17",
    ("MDSGP", "OK", "test", 8): "ae91824785e98ba4",
    ("MDSGP", "OK", "test", 64): "f508594654706b5a",
    ("CVSP", "LJ", "test", 8): "e3ab456e3d9f9e7f",
    ("CVSP", "LJ", "test", 64): "ca52dad197d16f0c",
    ("CVSP", "IN", "test", 8): "854f680fba918e97",
    ("CVSP", "IN", "test", 64): "783abfed8ca7aeb2",
    ("CVSP", "OK", "test", 8): "714dc30531b9c815",
    ("CVSP", "OK", "test", 64): "3c5bfa2149b6c8a5",
    ("2PS-L", "LJ", "bench", 64): "68e8435111de67b6",
    ("2PS-L", "IN", "bench", 64): "efe59a042bcc9c2e",
    ("CLUGP", "LJ", "bench", 64): "bcbec8643e86ef8b",
    ("CLUGP", "IN", "bench", 64): "04f0ea171eb216a0",
}


class TestBitIdentity:
    @pytest.mark.parametrize("name,graph,preset,k", sorted(PINNED))
    def test_pinned_digests(self, name, graph, preset, k):
        part = PARTITIONERS[name](standin_edges(graph, preset), k)
        digest = hashlib.sha256(part.tobytes()).hexdigest()[:16]
        assert digest == PINNED[name, graph, preset, k]
