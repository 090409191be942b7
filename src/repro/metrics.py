"""Partitioning-quality metrics: replication factor and load balance.

RF (Eq. 1) = Σ_v |P(v)| / |V| where P(v) is the set of partitions that
hold an edge incident to v. Load balance (Eq. 2) = k·max_i |p_i| / |E|.

Spark DataFrame implementations are the source of truth for experiments
(and are DuckDB-oracle-tested); the numpy twins serve the benchmark's
checks and quality readings and the tests, which compare them with the
Spark metrics.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.stream import hash_partition


def replication_df(edges_df: DataFrame, assign_df: DataFrame) -> DataFrame:
    """Per-vertex replication counts ``(v, n_replicas)`` via Spark."""
    # One row per edge end from a single scan of the join; a union of a
    # src and a dst select would plan the join twice.
    ends = edges_df.join(assign_df, "eid").select(
        F.explode(F.array("src", "dst")).alias("v"), "partition"
    )
    # One shuffle on v serves both the (v, partition) distinct and the
    # groupBy on v.
    return (
        hash_partition(ends, "v")
        .distinct()
        .groupBy("v")
        .agg(F.count("*").alias("n_replicas"))
    )


def replication_factor(edges_df: DataFrame, assign_df: DataFrame) -> float:
    """Replication factor of an assignment, computed in Spark (NaN if empty)."""
    row = (
        replication_df(edges_df, assign_df)
        .agg(F.sum("n_replicas").alias("s"), F.count("*").alias("n"))
        .collect()[0]
    )
    if row["n"] == 0:
        return float("nan")
    return float(row["s"]) / float(row["n"])


def partition_sizes_df(assign_df: DataFrame) -> DataFrame:
    """Edges per partition, as ``(partition, sz)``."""
    return (
        hash_partition(assign_df, "partition")
        .groupBy("partition")
        .agg(F.count("*").alias("sz"))
    )


def load_balance(assign_df: DataFrame, k: int) -> float:
    """Relative load balance k·max|p_i|/|E| (lower is better, ≥ 1; NaN if empty)."""
    row = (
        partition_sizes_df(assign_df)
        .agg(F.max("sz").alias("mx"), F.sum("sz").alias("tot"))
        .collect()[0]
    )
    if row["tot"] is None:  # no edges, so no partition rows
        return float("nan")
    return float(k * row["mx"]) / float(row["tot"])


def replication_factor_np(edges: np.ndarray, part: np.ndarray, k: int) -> float:
    """Fast numpy RF: distinct (vertex, partition) pairs over |V|."""
    if len(edges) == 0:
        return float("nan")
    return len(np.unique(edges * k + part[:, None])) / len(np.unique(edges))


def load_balance_np(part: np.ndarray, k: int) -> float:
    """Numpy twin of :func:`load_balance`."""
    if len(part) == 0:
        return float("nan")
    sizes = np.bincount(part, minlength=k)
    return float(k * sizes.max()) / float(len(part))
