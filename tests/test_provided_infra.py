"""Smoke test for the provided DuckDB oracle.

The oracle is the plumbing every Spark metric test relies on, so its
positive path is pinned here on a plain aggregation over a graph
DataFrame.
"""
import pytest
from pyspark.sql import functions as F

from repro.core.stream import edges_to_df
from repro.graphgen.catalog import standin_edges
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def edges(spark):
    df = edges_to_df(spark, standin_edges("LJ", "test"))
    df.cache().count()
    return df


class TestOracle:
    def test_aggregation_equivalence(self, spark, edges):
        got = edges.groupBy("src").agg(
            F.sum("dst").alias("sum_dst"),
            F.count("*").alias("n"),
        )
        assert_equivalent(
            got,
            """
            SELECT src, SUM(dst) AS sum_dst, COUNT(*) AS n
            FROM edges GROUP BY src
            """,
            edges=edges,
        )
