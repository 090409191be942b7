"""Cross-module integration tests: the table harnesses at test scale."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.baselines.api import PARTITIONERS, run_partitioner, run_partitioner_spark
from repro.core.stream import edges_to_df
from repro.graphgen.catalog import ALL_REAL, ALL_SYNTH, standin_edges
from repro.metrics import load_balance, replication_factor, replication_factor_np

from jobs.table1_features import feature_matrix
from jobs.table2_datasets import dataset_stats
from jobs.assemble_experiments import EXPERIMENTS, RESULTS, blocks, marked
from jobs.sweep import TABLE3, TABLE4, measure, sweep
from jobs.table5_optimality import table5


class TestTable1:
    def test_matrix_matches_paper(self):
        t = feature_matrix()
        rows = {r["algorithm"]: r for r in t}
        assert rows["S5P-Clustering"]["skewness_aware"]
        assert not rows["Holl"]["skewness_aware"]
        assert rows["2PS-L-Clustering"]["migration"] == "global"
        assert rows["CLUGP-Clustering"]["migration"] == "local"
        assert rows["S5P-Clustering"]["migration"] == "local/global"
        assert all(r["allocation"] for r in t)


class TestTable2:
    def test_stats_for_two_graphs(self, spark):
        t = dataset_stats(spark, names=["LJ", "G1"], preset="test")
        assert set(t["graph"]) == {"LJ", "G1"}
        assert (t["n_edges"] > 0).all()
        assert (t["rho"] > 0).all()


class TestTable3:
    def test_small_sweep_shape(self, spark):
        t = sweep(spark, (replace(TABLE3, graphs=("IN",), ks=(8,), preset="test"),))
        assert len(t) == 5  # 4 partitioners + S5P with exact Θ
        assert set(t["method"]) == {"CLUGP", "2PS-L", "HDRF", "S5P"}
        assert (t["rf"] >= 1).all()
        assert (t["balance"] <= 1.6).all()
        assert t["mem_mb"].isna().all()  # Table 3 reports no memory


class TestTable4:
    def test_small_games_table(self, spark):
        t = sweep(spark, (replace(TABLE4, graphs=("LJ",), ks=(8,), preset="test", time_budget_s=120),))
        assert set(t["method"]) == {"RMGP", "MDSGP", "CVSP", "CLUGP", "S5P"}
        done = t[t["rf"].notna()]
        assert (done["time_s"] >= 0).all()
        assert (done["mem_mb"] > 0).all()

    def test_budget_marks_missing(self, spark):
        t = sweep(spark, (replace(TABLE4, graphs=("LJ",), ks=(8,), preset="test", time_budget_s=0.0),))
        rmgp = t[t["method"] == "RMGP"].iloc[0]
        assert np.isnan(rmgp["rf"])


class TestSweep:
    def test_memory_pass_must_match(self, monkeypatch):
        calls = []

        def drifting(edges, k):
            calls.append(None)
            return np.full(len(edges), len(calls) % k, dtype=np.int64)

        monkeypatch.setitem(PARTITIONERS, "Drifting", drifting)
        e = standin_edges("LJ", "test")
        with pytest.raises(RuntimeError, match="memory pass"):
            measure(e, "Drifting", 8, {}, measure_memory=True)

    def test_experiments_tables_are_rendered_from_results(self):
        text = EXPERIMENTS.read_text()
        for name, body in blocks(pd.read_csv(RESULTS)).items():
            assert marked(text, name).group(2) == body, name


class TestTable5:
    def test_optimality_table(self):
        t = table5()
        assert len(t) == 9  # 3 graphs × 3 partitioners
        assert (t["rf"] >= t["opt"] - 1e-9).all()
        assert (t["alpha"] >= 1.0 - 1e-9).all()

    def test_s5p_alpha_best_or_close(self):
        t = table5()
        by_graph = t.pivot(index="graph", columns="partitioner", values="alpha")
        # S5P's approximation ratio is the best (or ties) on most graphs
        wins = (by_graph["S5P"] <= by_graph.min(axis=1) + 0.15).sum()
        assert wins >= 2


class TestEndToEndSpark:
    @pytest.mark.parametrize("name", ["LJ", "IN"])
    def test_spark_pipeline_all_methods(self, spark, name):
        e = standin_edges(name, "test")
        df = edges_to_df(spark, e)
        df.cache().count()
        for meth in ["S5P", "CLUGP", "2PS-L", "HDRF"]:
            assign, stats = run_partitioner_spark(spark, df, meth, 8)
            rf = replication_factor(df, assign)
            bal = load_balance(assign, 8)
            assert rf >= 1.0
            assert bal <= 1.51
        df.unpersist()

    def test_every_catalog_graph_partitionable(self):
        for name in ALL_REAL + ALL_SYNTH:
            e = standin_edges(name, "test")
            part, _ = run_partitioner(e, "S5P", 8)
            assert replication_factor_np(e, part, 8) >= 1.0
