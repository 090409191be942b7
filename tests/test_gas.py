"""Tests for the GAS/PowerGraph substrate: replica-synchronization cost."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.api import run_partitioner_spark
from repro.core.stream import edges_to_df
from repro.gas.pagerank import communication_cost
from repro.graphgen.catalog import standin_edges
from repro.metrics import replication_factor


@pytest.fixture(scope="module")
def edges_np():
    return standin_edges("IN", "test")


@pytest.fixture(scope="module")
def edges(spark, edges_np):
    df = edges_to_df(spark, edges_np)
    df.cache().count()
    return df


class TestCommunication:
    def test_comm_cost_formula(self, spark, edges, edges_np):
        # 2·Σ(|P(v)|−1) per iteration
        assign, _ = run_partitioner_spark(spark, edges, "Random", 8)
        rf = replication_factor(edges, assign)
        n_v = len(np.unique(edges_np))
        expect = 2 * (rf * n_v - n_v)
        assert communication_cost(edges, assign) == pytest.approx(expect, abs=2)

    def test_iterations_scale_linearly(self, spark, edges):
        assign, _ = run_partitioner_spark(spark, edges, "DBH", 8)
        one = communication_cost(edges, assign, n_iters=1)
        five = communication_cost(edges, assign, n_iters=5)
        assert five == 5 * one

    def test_lower_rf_lower_communication(self, spark, edges):
        # the paper's Q5 mechanism: S5P's lower RF → fewer messages
        a_s5p, _ = run_partitioner_spark(spark, edges, "S5P", 8)
        a_rnd, _ = run_partitioner_spark(spark, edges, "Random", 8)
        assert communication_cost(edges, a_s5p) < communication_cost(edges, a_rnd)

    def test_single_partition_no_communication(self, spark, edges, edges_np):
        one = spark.createDataFrame(
            pd.DataFrame({"eid": np.arange(len(edges_np)), "partition": 0})
        )
        assert communication_cost(edges, one) == 0
