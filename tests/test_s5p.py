"""End-to-end tests for the S5P pipeline (numpy core + Spark entry)."""
import numpy as np
import pytest

from repro.baselines.api import run_partitioner_spark
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges, max_load
from repro.core.s5p import s5p_partition_np
from repro.core.stream import edges_to_df
from repro.core.theta import CMSTheta
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    replication_factor,
    replication_factor_np,
)


@pytest.fixture(scope="module")
def lj():
    return standin_edges("LJ", "test")


class TestPipeline:
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK", "G1", "G4"])
    @pytest.mark.parametrize("k", [4, 16])
    def test_valid_partitioning(self, name, k):
        e = standin_edges(name, "test")
        part, stats = s5p_partition_np(e, k)
        assert len(part) == len(e)
        assert 0 <= part.min() and part.max() < k
        assert stats.n_clusters > 0

    def test_equals_stages_composed(self, lj):
        k = 8
        cl = skewness_aware_clustering(lj, k)
        theta = CMSTheta()
        theta.add_pairs(*cl.cut_pairs)
        game = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, theta.pairs(), k
        )
        staged = assign_edges(cl.edge_cu, cl.edge_cv, cl.edge_is_head, game.c2p, k)
        part, _ = s5p_partition_np(lj, k)
        np.testing.assert_array_equal(part, staged)

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_balance_constraint(self, lj, k):
        part, _ = s5p_partition_np(lj, k)
        cap = max_load(len(lj), k)
        assert np.bincount(part, minlength=k).max() <= cap

    def test_deterministic(self, lj):
        a, _ = s5p_partition_np(lj, 8)
        b, _ = s5p_partition_np(lj, 8)
        np.testing.assert_array_equal(a, b)

    def test_stats_populated(self, lj):
        _, st = s5p_partition_np(lj, 8)
        assert st.n_vertices > 0
        assert st.n_edges == len(lj)
        assert st.n_head_clusters > 0
        assert st.game_converged
        assert st.delta > 0
        assert set(st.timings) == {"clustering", "theta", "game", "postprocess"}

    def test_cms_close_to_exact(self, lj):
        # Figure 9 flavor: the CMS trades ~nothing in RF
        p_cms, _ = s5p_partition_np(lj, 8, use_cms=True)
        p_exact, _ = s5p_partition_np(lj, 8, use_cms=False)
        rf_cms = replication_factor_np(lj, p_cms, 8)
        rf_exact = replication_factor_np(lj, p_exact, 8)
        assert abs(rf_cms - rf_exact) / rf_exact < 0.25

    def test_two_stage_at_least_as_good_on_web(self):
        # Figure 7(d): two-stage ≤ one-stage RF (allow small noise)
        e = standin_edges("IN", "test")
        p2, _ = s5p_partition_np(e, 16)
        p1, _ = s5p_partition_np(e, 16, one_stage=True)
        rf2 = replication_factor_np(e, p2, 16)
        rf1 = replication_factor_np(e, p1, 16)
        assert rf2 <= rf1 * 1.1

    def test_bounded_variant_runs(self, lj):
        part, st = s5p_partition_np(lj, 8, bounded=True)
        assert len(part) == len(lj)
        # S5P-B has no maxLoad → balance may exceed τ=1
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_beta_sensitivity_direction(self, lj):
        # Figure 12(a): RF is not wildly sensitive to β around 1
        rfs = []
        for beta in (0.5, 1.0, 2.0):
            p, _ = s5p_partition_np(lj, 8, beta=beta)
            rfs.append(replication_factor_np(lj, p, 8))
        assert max(rfs) / min(rfs) < 1.5

    def test_batch_parallel_quality_close(self, lj):
        p_seq, _ = s5p_partition_np(lj, 8, batch_size=1)
        p_par, _ = s5p_partition_np(lj, 8, batch_size=256)
        rf_seq = replication_factor_np(lj, p_seq, 8)
        rf_par = replication_factor_np(lj, p_par, 8)
        assert abs(rf_par - rf_seq) / rf_seq < 0.35

    def test_empty_rounds_cap(self, lj):
        _, st = s5p_partition_np(lj, 8, max_rounds=2)
        assert st.game_rounds <= 2


class TestSparkEntry:
    def test_assignment_dataframe(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, stats = run_partitioner_spark(spark, edges_df, "S5P", 8)
        assert assign.columns == ["eid", "partition"]
        assert assign.count() == len(lj)
        assert stats.name == "S5P" and stats.k == 8

    def test_spark_metrics_match_numpy(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, _ = run_partitioner_spark(spark, edges_df, "S5P", 8)
        part = assign.toPandas().sort_values("eid")["partition"].to_numpy()
        assert replication_factor(edges_df, assign) == pytest.approx(
            replication_factor_np(lj, part, 8)
        )
        assert load_balance(assign, 8) == pytest.approx(load_balance_np(part, 8))
