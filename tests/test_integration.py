"""Cross-module integration tests: the table harnesses at test scale."""
import itertools
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.baselines.api import PARTITIONERS, run_partitioner, run_partitioner_spark
from repro.core.stream import edges_to_df
from repro.graphgen.catalog import ALL_REAL, ALL_SYNTH, standin_edges
from repro.metrics import load_balance, replication_factor, replication_factor_np

import jobs.sweep
from jobs.assemble_experiments import EXPERIMENTS, RESULTS, blocks, marked
from jobs.sweep import TABLE2, TABLE3, TABLE4, TABLE5, measure, sweep


@pytest.fixture
def single_calls(monkeypatch):
    """Time each cell by its minimum number of calls, however short."""
    monkeypatch.setattr(jobs.sweep, "MIN_TIME_S", 0.0)


class TestTable2:
    def test_stats_for_two_graphs(self, spark):
        t = sweep(spark, (replace(TABLE2, graphs=("LJ", "G1"), preset="test"),))
        assert len(t) == 2  # one skewness row per graph, no partition cells
        assert t["method"].isna().all()
        assert set(t["graph"]) == {"LJ", "G1"}
        assert (t["n_edges"] > 0).all()
        assert (t["rho"] > 0).all()


@pytest.mark.usefixtures("single_calls")
class TestTable3:
    def test_small_sweep_shape(self, spark):
        t = sweep(spark, (replace(TABLE3, graphs=("IN",), ks=(8,), preset="test"),))
        assert t["method"].isna().sum() == 1  # the graph's skewness row
        t = t[t["method"].notna()]
        assert len(t) == 5  # 4 partitioners + S5P with exact Θ
        assert set(t["method"]) == {"CLUGP", "2PS-L", "HDRF", "S5P"}
        assert (t["rf"] >= 1).all()
        assert (t["balance"] <= 1.6).all()
        assert t["mem_mb"].isna().all()  # Table 3 reports no memory


@pytest.mark.usefixtures("single_calls")
class TestTable4:
    def test_small_games_table(self, spark):
        t = sweep(spark, (replace(TABLE4, graphs=("LJ",), ks=(8,), preset="test", time_budget_s=120),))
        assert set(t["method"].dropna()) == {"RMGP", "MDSGP", "CVSP", "CLUGP", "S5P"}
        done = t[t["rf"].notna()]
        assert (done["time_s"] >= 0).all()
        assert (done["mem_mb"] > 0).all()

    def test_budget_marks_missing(self, spark):
        t = sweep(spark, (replace(TABLE4, graphs=("LJ",), ks=(8,), preset="test", time_budget_s=0.0),))
        rmgp = t[t["method"] == "RMGP"].iloc[0]
        assert np.isnan(rmgp["rf"])


class TestSweep:
    @pytest.mark.usefixtures("single_calls")
    def test_memory_pass_must_match(self, monkeypatch):
        calls = []

        def drifting(edges, k):
            calls.append(None)
            return np.full(len(edges), len(calls) % k, dtype=np.int64)

        monkeypatch.setitem(PARTITIONERS, "Drifting", drifting)
        e = standin_edges("LJ", "test")
        with pytest.raises(RuntimeError, match="memory pass"):
            measure(e, "Drifting", 8, {}, measure_memory=True)

    def test_short_cells_repeat_until_min_time(self, monkeypatch):
        clock = itertools.count(0.0, 0.125)  # every call takes 0.125 s
        monkeypatch.setattr(jobs.sweep.time, "perf_counter", lambda: next(clock))
        calls = []

        def counted(edges, k):
            calls.append(None)
            return np.zeros(len(edges), dtype=np.int64)

        monkeypatch.setitem(PARTITIONERS, "Counted", counted)
        e = np.zeros((3, 2), dtype=np.int64)
        measure(e, "Counted", 2, {}, measure_memory=False)
        assert len(calls) == jobs.sweep.MIN_TIME_S / 0.125
        calls.clear()
        monkeypatch.setattr(jobs.sweep, "MIN_TIME_S", 0.0)
        measure(e, "Counted", 2, {}, measure_memory=False)
        assert len(calls) == jobs.sweep.MIN_CALLS

    def test_experiments_tables_are_rendered_from_results(self):
        text = EXPERIMENTS.read_text()
        for name, body in blocks(pd.read_csv(RESULTS)).items():
            assert marked(text, name).group(2) == body, name


def alphas(t: pd.DataFrame) -> pd.DataFrame:
    """Table 5's α = RF/Opt, one row per graph, one column per method."""
    rf = t[t["method"].notna()].pivot(index="graph", columns="method", values="rf")
    return rf.drop(columns="Opt").div(rf["Opt"], axis=0)


@pytest.fixture(scope="module")
def table5(spark):
    """One Table-5 sweep, timed by single calls, for the tests below."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jobs.sweep, "MIN_TIME_S", 0.0)
        return sweep(spark, (TABLE5,))


class TestTable5:
    def test_optimality_table(self, table5):
        cells = table5[table5["method"].notna()]
        assert len(cells) == 12  # 3 graphs × (the optimum + 3 partitioners)
        assert set(table5.loc[table5["method"].isna(), "n_edges"]) == {12, 15}
        assert (alphas(table5) >= 1.0 - 1e-9).all().all()  # no method beats Opt

    def test_s5p_alpha_best_or_close(self, table5):
        by_graph = alphas(table5)
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
