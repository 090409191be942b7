"""Tests for skewness-aware streaming clustering (Algorithm 1)."""
import math

import numpy as np
import pytest

from repro.core.clustering import (
    cluster_capacity,
    head_threshold,
    skewness_aware_clustering,
)
from repro.core.stream import degrees_np
from repro.graphgen.catalog import standin_edges
from repro.graphgen.tiny import toy_graph


@pytest.fixture(scope="module")
def toy():
    return toy_graph()


@pytest.fixture(scope="module")
def lj_test():
    return standin_edges("LJ", "test")


class TestThresholds:
    def test_xi_is_beta_times_average_degree(self):
        assert head_threshold(10, 50) == pytest.approx(10.0)
        assert head_threshold(10, 50, beta=2.0) == pytest.approx(20.0)

    def test_kappa(self):
        assert cluster_capacity(140, 3) == pytest.approx(2 * 140 / 3)

    def test_toy_graph_kappa_matches_paper(self, toy):
        # worked example: k=3 → κ = 2·14/3 ≈ 9.3
        assert cluster_capacity(len(toy), 3) == pytest.approx(9.333, abs=0.01)


class TestInvariants:
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK", "G1"])
    def test_every_vertex_clustered(self, name):
        e = standin_edges(name, "test")
        cl = skewness_aware_clustering(e, 8)
        touched = np.unique(e)
        # every vertex appears in at least one of the two tables
        has_cluster = (cl.v2c_head[touched] >= 0) | (cl.v2c_tail[touched] >= 0)
        assert has_cluster.all()

    def test_tail_vertices_only_in_tail_table(self, lj_test):
        # Definition 1: tail vertices exclusively appear within tail edges
        cl = skewness_aware_clustering(lj_test, 8)
        deg = degrees_np(lj_test)
        tail_v = np.flatnonzero((deg > 0) & (deg <= cl.xi))
        assert (cl.v2c_head[tail_v] == -1).all()

    def test_head_edge_classification(self, lj_test):
        cl = skewness_aware_clustering(lj_test, 8)
        deg = degrees_np(lj_test)
        expect = (deg[lj_test[:, 0]] > cl.xi) & (deg[lj_test[:, 1]] > cl.xi)
        np.testing.assert_array_equal(cl.edge_is_head, expect)

    def test_cluster_sizes_partition_edges(self, lj_test):
        cl = skewness_aware_clustering(lj_test, 8)
        assert cl.cluster_sizes.sum() == len(lj_test)

    def test_head_clusters_flagged(self, lj_test):
        cl = skewness_aware_clustering(lj_test, 8)
        # every cluster an edge_cu of a head edge points to is a head cluster
        head_cl = np.unique(cl.edge_cu[cl.edge_is_head])
        assert cl.cluster_is_head[head_cl].all()
        tail_cl = np.unique(cl.edge_cu[~cl.edge_is_head])
        assert not cl.cluster_is_head[tail_cl].any()

    def test_stream_columns_are_views(self, lj_test):
        # the result holds the caller's stream, not a second copy of it
        cl = skewness_aware_clustering(lj_test, 8)
        assert np.shares_memory(cl.edges_src, lj_test)
        assert np.shares_memory(cl.edges_dst, lj_test)
        np.testing.assert_array_equal(cl.edges_src, lj_test[:, 0])
        np.testing.assert_array_equal(cl.edges_dst, lj_test[:, 1])

    def test_cluster_ids_dense_range(self, lj_test):
        cl = skewness_aware_clustering(lj_test, 8)
        assert cl.edge_cu.max() < cl.n_clusters
        assert cl.edge_cv.max() < cl.n_clusters
        assert cl.edge_cu.min() >= 0

    def test_volume_conservation_tail(self):
        # Σ tail volumes == Σ local degrees (each tail edge adds 2)
        e = standin_edges("IN", "test")
        cl = skewness_aware_clustering(e, 8)
        n_tail_edges = int((~cl.edge_is_head).sum())
        tail_vol = cl.cluster_volume[~cl.cluster_is_head].sum()
        assert tail_vol == pytest.approx(2 * n_tail_edges)

    def test_volume_conservation_head(self):
        # Σ head volumes == Σ global degrees of head-table vertices
        e = standin_edges("IN", "test")
        cl = skewness_aware_clustering(e, 8)
        deg = degrees_np(e)
        head_vol = cl.cluster_volume[cl.cluster_is_head].sum()
        member_deg = deg[cl.v2c_head >= 0].sum()
        assert head_vol == pytest.approx(member_deg)

    def test_deterministic(self, lj_test):
        a = skewness_aware_clustering(lj_test, 8)
        b = skewness_aware_clustering(lj_test, 8)
        np.testing.assert_array_equal(a.v2c_head, b.v2c_head)
        np.testing.assert_array_equal(a.v2c_tail, b.v2c_tail)

    def test_empty_graph(self):
        cl = skewness_aware_clustering(np.zeros((0, 2), dtype=np.int64), 4)
        assert cl.n_clusters == 0
        assert cl.n_edges == 0

    def test_beta_extremes_make_every_edge_one_kind(self, lj_test):
        # β = 0 is 2PS-L's clustering (every edge global), β = ∞ Holl's
        # and CLUGP's (every edge local); β = 1 (S5P) has both kinds.
        cl = skewness_aware_clustering(lj_test, 8, beta=0.0)
        assert cl.edge_is_head.all() and cl.cluster_is_head.all()
        assert (cl.v2c_tail == -1).all()
        cl = skewness_aware_clustering(lj_test, 8, beta=np.inf)
        assert not cl.edge_is_head.any() and not cl.cluster_is_head.any()
        assert (cl.v2c_head == -1).all()
        cl = skewness_aware_clustering(lj_test, 8, beta=1.0)
        assert 0 < cl.edge_is_head.sum() < len(lj_test)
        assert 0 < cl.cluster_is_head.sum() < cl.n_clusters
        # ξ = ∞ · 0 is nan on the empty stream; nothing reads it.
        empty = np.zeros((0, 2), dtype=np.int64)
        assert skewness_aware_clustering(empty, 4, beta=np.inf).n_clusters == 0


class TestMigration:
    def test_migration_consolidates_chain(self):
        # a path of tail edges should end up in few clusters, not n
        # (β=10 forces every vertex below ξ so the whole path is tail)
        e = np.array([(i, i + 1) for i in range(30)], dtype=np.int64)
        cl = skewness_aware_clustering(e, 2, beta=10.0)
        live = np.unique(cl.v2c_tail[cl.v2c_tail >= 0])
        assert len(live) < 15

    def test_kappa_caps_migration(self):
        # with a tiny kappa no cluster's volume can absorb others
        e = np.array([(i, i + 1) for i in range(30)], dtype=np.int64)
        cl = skewness_aware_clustering(e, 2, beta=10.0, kappa=2.0)
        live = np.unique(cl.v2c_tail[cl.v2c_tail >= 0])
        assert len(live) > 10

    def test_bounded_variant_global_degrees(self):
        e = standin_edges("LJ", "test")
        a = skewness_aware_clustering(e, 8, use_local_degrees=False, kappa=np.inf)
        b = skewness_aware_clustering(e, 8)
        # S5P-B merges more aggressively without the κ cap
        live_a = len(np.unique(a.v2c_tail[a.v2c_tail >= 0]))
        live_b = len(np.unique(b.v2c_tail[b.v2c_tail >= 0]))
        assert live_a <= live_b


    def test_inclusive_cap_moves_at_exact_capacity(self):
        # Edge (0, 1) offers vertex 0 (d=2) to cluster {1} (vol 1):
        # vol + d == κ == 3. Alg. 1 admits vol + d < κ; 2PS-L admits
        # vol + d <= κ, which it passes to Alg. 1 (β = 0, every edge
        # global) as the cap ⌊κ⌋+1.
        e = np.array([[0, 1], [0, 2]], dtype=np.int64)
        alg1 = skewness_aware_clustering(e, 2, beta=0.0, kappa=3.0).v2c_head
        twops = skewness_aware_clustering(e, 2, beta=0.0, kappa=math.floor(3.0) + 1).v2c_head
        assert alg1.tolist() == [0, 1, 2]
        assert twops.tolist() == [1, 1, 2]

    def test_split_restarts_vertices_of_a_full_cluster(self):
        # The first edge merges 0 into 1's cluster; the repeat fills it
        # (vol 4 >= κ = 3) while both local degrees are 2 < κ, so CLUGP
        # restarts each endpoint in a new cluster of volume ld = 2 and
        # leaves the old cluster's volume as it was.
        e = np.array([[0, 1], [0, 1]], dtype=np.int64)
        cl = skewness_aware_clustering(e, 2, beta=np.inf, kappa=3.0)
        plain, plain_vol = cl.v2c_tail, cl.cluster_volume
        cl = skewness_aware_clustering(e, 2, beta=np.inf, kappa=3.0, split=True)
        split, split_vol, is_global = cl.v2c_tail, cl.cluster_volume, cl.cluster_is_head
        assert plain.tolist() == [1, 1] and plain_vol.tolist() == [0.0, 4.0]
        assert split.tolist() == [2, 3]
        assert split_vol.tolist() == [0.0, 4.0, 2.0, 2.0]
        assert not is_global.any()


class TestCutPairs:
    def test_pairs_exclude_same_cluster(self, lj_test):
        cl = skewness_aware_clustering(lj_test, 8)
        cu, cv = cl.cut_pairs
        assert (cu != cv).all()

    def test_head_tail_coupling_present(self, lj_test):
        # head×tail pairs must exist (the leader/follower coupling)
        cl = skewness_aware_clustering(lj_test, 8)
        cu, cv = cl.cut_pairs
        mixed = cl.cluster_is_head[cu] != cl.cluster_is_head[cv]
        assert mixed.any()

    def test_beta_shifts_split(self, lj_test):
        lo = skewness_aware_clustering(lj_test, 8, beta=0.5)
        hi = skewness_aware_clustering(lj_test, 8, beta=2.0)
        # larger β → fewer head vertices → fewer head edges
        assert hi.edge_is_head.sum() < lo.edge_is_head.sum()
