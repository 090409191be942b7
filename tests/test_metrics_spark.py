"""Spark metric implementations, oracle-checked against DuckDB.

Every query-shaped result (degrees, RF, balance) is validated with
``repro.oracle.assert_equivalent`` so a broken join or aggregation is
caught as a wrong *result*, not just a crash.
"""
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.api import run_partitioner, run_partitioner_spark
from repro.core.stream import degrees_df, degrees_np, df_to_edges, edges_to_df
from repro.gas.pagerank import communication_cost
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    partition_sizes_df,
    replication_df,
    replication_factor,
    replication_factor_np,
)
from repro.skew.metrics import (
    pearson_skew,
    planarization_rho3,
    regression_rho,
    skewness_metrics,
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

SIZES_SQL = "SELECT partition, COUNT(*) AS sz FROM assign GROUP BY partition"

ARROW_CONF = "spark.sql.execution.arrow.pyspark.enabled"

HASH_EXCHANGE = re.compile(r"Exchange hashpartitioning\(([^)]*)\), (\w+)")


def hash_exchanges(df):
    """``(keys, partitions, origin)`` of every hash exchange in ``df``'s plan."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    out = []
    for args, origin in HASH_EXCHANGE.findall(plan):
        *keys, n = (a.strip() for a in args.split(","))
        out.append((tuple(k.split("#")[0] for k in keys), int(n), origin))
    return out


def with_conf(spark, conf, fn):
    """Run ``fn()`` with the session settings ``conf``, then restore them."""
    old = {key: spark.conf.get(key) for key in conf}
    try:
        for key, value in conf.items():
            spark.conf.set(key, value)
        return fn()
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)


@pytest.fixture(scope="module")
def edges_np():
    return standin_edges("LJ", "test")


@pytest.fixture(scope="module")
def edges(spark, edges_np):
    df = edges_to_df(spark, edges_np)
    df.cache().count()
    return df


@pytest.fixture(scope="module")
def degenerate_np(edges_np):
    """The LJ stream plus a self-loop on a new vertex and a repeated edge."""
    new_v = int(edges_np.max()) + 1
    return np.vstack([edges_np, [[new_v, new_v], edges_np[0]]])


@pytest.fixture(scope="module")
def degenerate(spark, degenerate_np):
    return edges_to_df(spark, degenerate_np)


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
        empty = np.zeros((0, 2), np.int64)
        edges = edges_to_df(spark, empty)
        back = df_to_edges(edges)
        assert back.shape == (0, 2) and back.dtype == np.int64
        skew = skewness_metrics(edges)
        assert skew["n_vertices"] == skew["n_edges"] == 0
        assert all(np.isnan(skew[m]) for m in ("rho", "rho1", "rho2"))
        assign, _ = run_partitioner_spark(spark, edges, "S5P", 8)
        assert assign.count() == 0
        assert assign.dtypes == [("eid", "bigint"), ("partition", "bigint")]
        # RF and balance divide by |V| and |E|: undefined, not a crash.
        assert np.isnan(replication_factor(edges, assign))
        assert np.isnan(load_balance(assign, 8))
        assert communication_cost(edges, assign, 10) == 0
        part = np.zeros(0, np.int64)
        assert np.isnan(replication_factor_np(empty, part, 8))
        assert np.isnan(load_balance_np(part, 8))

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

    def test_degrees_oracle(self, degenerate):
        assert_equivalent(degrees_df(degenerate), DEGREES_SQL, edges=degenerate)

    def test_oracle_catches_wrong_result(self, edges):
        wrong = degrees_df(edges).withColumn("degree", F.col("degree") + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, DEGREES_SQL, edges=edges)

    def test_oracle_catches_column_mismatch(self, edges):
        renamed = degrees_df(edges).withColumnRenamed("degree", "d")
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(renamed, DEGREES_SQL, edges=edges)

    def test_degrees_match_numpy(self, degenerate, degenerate_np):
        pdf = degrees_df(degenerate).toPandas().set_index("v").sort_index()
        d = degrees_np(degenerate_np)
        np.testing.assert_array_equal(
            pdf["degree"].to_numpy(), d[pdf.index.to_numpy()]
        )
        assert pdf["degree"].iloc[-1] == 2  # the self-loop counts twice


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


class TestShuffle:
    """Each metric shuffles once, on its key, into ``defaultParallelism``."""

    @pytest.mark.parametrize("broadcast", ["-1", "10485760"])
    def test_one_exchange_per_metric(self, spark, edges, assign, broadcast):
        def plans():
            return {
                "v": [hash_exchanges(degrees_df(edges)),
                      hash_exchanges(replication_df(edges, assign))],
                "partition": [hash_exchanges(partition_sizes_df(assign))],
            }

        conf = {"spark.sql.autoBroadcastJoinThreshold": broadcast}
        want_n = spark.sparkContext.defaultParallelism
        for key, metric_plans in with_conf(spark, conf, plans).items():
            for exchanges in metric_plans:
                # A shuffle join on eid comes before the metric's own.
                own = [x for x in exchanges if x[0] != ("eid",)]
                assert own == [((key,), want_n, "REPARTITION_BY_NUM")], exchanges

    @pytest.mark.parametrize(
        "conf",
        [
            {"spark.sql.shuffle.partitions": "1"},
            {"spark.sql.shuffle.partitions": "200"},
            {"spark.sql.adaptive.enabled": "false"},
        ],
        ids=["shuffle-1", "shuffle-200", "aqe-off"],
    )
    def test_metrics_independent_of_settings(self, spark, degenerate, degenerate_np, conf):
        edges_np, edges, k = degenerate_np, degenerate, 8
        part = random_partition(edges_np, k, seed=5)
        assign = spark.createDataFrame(
            pd.DataFrame({"eid": np.arange(len(part)), "partition": part})
        )
        v = np.concatenate([edges_np[:, 0], edges_np[:, 1]])
        n_pairs = len(np.unique(v * k + np.concatenate([part, part])))
        n_v = len(np.unique(v))
        d = degrees_np(edges_np)
        d = d[d > 0]
        rho1, rho2 = pearson_skew(d)
        skew_np = {
            "n_vertices": n_v, "n_edges": len(edges_np), "rho": regression_rho(d),
            "rho1": rho1, "rho2": rho2, "rho3": planarization_rho3(n_v, len(edges_np)),
        }

        def check():
            assert_equivalent(degrees_df(edges), DEGREES_SQL, edges=edges)
            rep = replication_df(edges, assign)
            assert_equivalent(rep, REPLICATION_SQL, edges=edges, assign=assign)
            sizes = partition_sizes_df(assign)
            assert_equivalent(sizes, SIZES_SQL, assign=assign)
            assert replication_factor(edges, assign) == replication_factor_np(edges_np, part, k)
            assert load_balance(assign, k) == load_balance_np(part, k)
            assert communication_cost(edges, assign, 10) == 2 * 10 * (n_pairs - n_v)
            # Moments of the degree vector sum in collection order.
            assert skewness_metrics(edges) == pytest.approx(skew_np, rel=1e-9)

        with_conf(spark, conf, check)
