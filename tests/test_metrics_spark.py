"""Spark metric implementations, oracle-checked against DuckDB.

Every query-shaped result (degrees, RF, balance) is validated with
``repro.oracle.assert_equivalent`` so a broken join or aggregation is
caught as a wrong *result*, not just a crash.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.api import run_partitioner, run_partitioner_spark
from repro.core.stream import degrees_df, df_to_edges, edges_to_df
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    replication_df,
    replication_factor,
    replication_factor_np,
)
from repro.oracle import assert_equivalent
from repro.baselines.hashing import random_partition


DEGREES_SQL = """
    SELECT v, COUNT(*) AS degree FROM (
        SELECT src AS v FROM edges
        UNION ALL
        SELECT dst AS v FROM edges
    ) GROUP BY v
"""


REPLICATION_SQL = """
    SELECT v, COUNT(*) AS n_replicas FROM (
        SELECT DISTINCT v, partition FROM (
            SELECT e.src AS v, a.partition
            FROM edges e JOIN assign a ON e.eid = a.eid
            UNION ALL
            SELECT e.dst AS v, a.partition
            FROM edges e JOIN assign a ON e.eid = a.eid
        )
    ) GROUP BY v
"""

ARROW_CONF = "spark.sql.execution.arrow.pyspark.enabled"


@pytest.fixture(scope="module")
def edges_np():
    return standin_edges("LJ", "test")


@pytest.fixture(scope="module")
def edges(spark, edges_np):
    df = edges_to_df(spark, edges_np)
    df.cache().count()
    return df


@pytest.fixture(scope="module")
def assign(spark, edges_np):
    part = random_partition(edges_np, 8, seed=3)
    pdf = pd.DataFrame({"eid": np.arange(len(part)), "partition": part})
    df = spark.createDataFrame(pdf)
    df.cache().count()
    return df


class TestStream:
    def test_roundtrip(self, spark, edges_np, edges):
        back = df_to_edges(edges)
        np.testing.assert_array_equal(back, edges_np)

    def test_empty_stream(self, spark):
        edges = edges_to_df(spark, np.zeros((0, 2), np.int64))
        back = df_to_edges(edges)
        assert back.shape == (0, 2) and back.dtype == np.int64
        assign, _ = run_partitioner_spark(spark, edges, "S5P", 8)
        assert assign.count() == 0
        assert assign.dtypes == [("eid", "bigint"), ("partition", "bigint")]

    @pytest.mark.parametrize("arrow", ["false", "true"])
    def test_transfer_under_arrow_setting(self, spark, edges_np, arrow):
        """The jobs run with Arrow off, the test session with it on."""
        streams = {
            "LJ": edges_np,
            "one-edge": np.array([[3, 5]]),
            "huge-ids": np.array([[2**40, 2**40 + 7], [5, 2**41], [2**40, 5]]),
        }
        default_par = spark.sparkContext.defaultParallelism
        old = spark.conf.get(ARROW_CONF)
        spark.conf.set(ARROW_CONF, arrow)
        try:
            for name, e in streams.items():
                df = edges_to_df(spark, e)
                assert df.dtypes == [("eid", "bigint"), ("src", "bigint"), ("dst", "bigint")]
                assert df.rdd.getNumPartitions() <= default_par
                np.testing.assert_array_equal(df_to_edges(df), e, err_msg=name)
                np.testing.assert_array_equal(
                    df_to_edges(df.orderBy(F.desc("eid"))), e, err_msg=name
                )
                if name == "huge-ids":  # partitioners size state by max id
                    continue
                assign, _ = run_partitioner_spark(spark, df, "S5P", 4)
                assert assign.dtypes == [("eid", "bigint"), ("partition", "bigint")]
                assert assign.rdd.getNumPartitions() <= default_par
                got = assign.toArrow().sort_by("eid")
                np.testing.assert_array_equal(got["eid"].to_numpy(), np.arange(len(e)))
                np.testing.assert_array_equal(
                    got["partition"].to_numpy(), run_partitioner(e, "S5P", 4)[0]
                )
        finally:
            spark.conf.set(ARROW_CONF, old)

    def test_degrees_oracle(self, edges):
        assert_equivalent(degrees_df(edges), DEGREES_SQL, edges=edges)

    def test_oracle_catches_wrong_result(self, edges):
        wrong = degrees_df(edges).withColumn("degree", F.col("degree") + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, DEGREES_SQL, edges=edges)

    def test_oracle_catches_column_mismatch(self, edges):
        renamed = degrees_df(edges).withColumnRenamed("degree", "d")
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(renamed, DEGREES_SQL, edges=edges)

    def test_degrees_match_numpy(self, edges, edges_np):
        from repro.core.stream import degrees_np

        pdf = degrees_df(edges).toPandas().set_index("v").sort_index()
        d = degrees_np(edges_np)
        np.testing.assert_array_equal(
            pdf["degree"].to_numpy(), d[pdf.index.to_numpy()]
        )


class TestReplication:
    def test_replication_df_oracle(self, edges, assign):
        rep = replication_df(edges, assign)
        assert_equivalent(rep, REPLICATION_SQL, edges=edges, assign=assign)

    def test_self_loop_and_duplicate_edge(self, spark):
        # (1, 1) is a self-loop; (0, 1) arrives twice, on two partitions.
        edges_np = np.array([[0, 1], [1, 1], [0, 1], [2, 3], [3, 0], [2, 2]])
        part = np.array([0, 1, 2, 0, 1, 1])
        edges = edges_to_df(spark, edges_np)
        assign = spark.createDataFrame(
            pd.DataFrame({"eid": np.arange(len(part)), "partition": part})
        )
        rep = replication_df(edges, assign)
        assert_equivalent(rep, REPLICATION_SQL, edges=edges, assign=assign)
        assert replication_factor(edges, assign) == pytest.approx(
            replication_factor_np(edges_np, part, 3), rel=1e-9
        )

    def test_rf_spark_equals_numpy(self, edges, assign, edges_np):
        part = (
            assign.toPandas().sort_values("eid")["partition"].to_numpy()
        )
        rf_spark = replication_factor(edges, assign)
        rf_np = replication_factor_np(edges_np, part, 8)
        assert rf_spark == pytest.approx(rf_np, rel=1e-9)

    def test_rf_lower_bound(self, edges, assign):
        assert replication_factor(edges, assign) >= 1.0

    def test_single_partition_rf_is_one(self, spark, edges, edges_np):
        one = spark.createDataFrame(
            pd.DataFrame({"eid": np.arange(len(edges_np)), "partition": 0})
        )
        assert replication_factor(edges, one) == pytest.approx(1.0)


class TestBalance:
    def test_balance_spark_equals_numpy(self, edges, assign, edges_np):
        part = assign.toPandas().sort_values("eid")["partition"].to_numpy()
        assert load_balance(assign, 8) == pytest.approx(
            load_balance_np(part, 8), rel=1e-9
        )

    def test_balance_at_least_one(self, assign):
        assert load_balance(assign, 8) >= 1.0

    def test_perfect_balance(self, spark):
        pdf = pd.DataFrame({"eid": np.arange(80), "partition": np.arange(80) % 8})
        assert load_balance(spark.createDataFrame(pdf), 8) == pytest.approx(1.0)
