"""Spark metric implementations, oracle-checked against DuckDB.

Every query-shaped result (degrees, RF, balance) is validated with
``repro.oracle.assert_equivalent`` so a broken join or aggregation is
caught as a wrong *result*, not just a crash.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

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
        assert_equivalent(
            rep,
            """
            SELECT v, COUNT(*) AS n_replicas FROM (
                SELECT DISTINCT v, partition FROM (
                    SELECT e.src AS v, a.partition
                    FROM edges e JOIN assign a ON e.eid = a.eid
                    UNION ALL
                    SELECT e.dst AS v, a.partition
                    FROM edges e JOIN assign a ON e.eid = a.eid
                )
            ) GROUP BY v
            """,
            edges=edges,
            assign=assign,
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
