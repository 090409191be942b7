"""GAS-model (PowerGraph) substrate: PageRank over a partitioning.

The paper's Q5 deploys partitioners on a 32-node PowerGraph cluster and
measures PageRank runtime + communication. Our stand-in (DESIGN.md §4)
computes exactly the quantity PowerGraph's engine synchronizes: each
vertex replicated in |P(v)| partitions exchanges gather results and
apply updates between its mirrors and master every iteration, i.e.

    messages/iteration = 2 · Σ_v (|P(v)| − 1)

so communication cost is a linear function of the replication factor —
the mechanism behind the paper's "lower RF → less communication" claim.
PageRank itself runs as a Spark DataFrame fixpoint (edges + ranks join)
and is verified against a numpy reference in the tests.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.metrics import replication_df


def communication_cost(edges_df: DataFrame, assign_df: DataFrame, n_iters: int = 1) -> int:
    """Replica-synchronization messages for ``n_iters`` GAS iterations."""
    row = (
        replication_df(edges_df, assign_df)
        .agg(F.sum(F.col("n_replicas") - 1).alias("sync"))
        .collect()[0]
    )
    return int(2 * (row["sync"] or 0) * n_iters)  # sum over no rows is null


def pagerank_spark(
    edges_df: DataFrame, n_iters: int = 10, damping: float = 0.85
) -> DataFrame:
    """PageRank as a DataFrame fixpoint; returns ``(v, rank)``.

    Degree-normalized push along directed edges with uniform handling of
    dangling mass, matching the numpy reference implementation.
    """
    verts = (
        edges_df.select(F.col("src").alias("v"))
        .unionAll(edges_df.select(F.col("dst").alias("v")))
        .distinct()
    )
    n = verts.count()
    out_deg = edges_df.groupBy(F.col("src").alias("v")).agg(
        F.count("*").alias("out_deg")
    )
    ranks = verts.withColumn("rank", F.lit(1.0 / n))
    for _ in range(n_iters):
        contribs = (
            edges_df.join(ranks, edges_df.src == ranks.v)
            .join(out_deg, out_deg.v == edges_df.src)
            .select(
                F.col("dst").alias("v"),
                (F.col("rank") / F.col("out_deg")).alias("contrib"),
            )
            .groupBy("v")
            .agg(F.sum("contrib").alias("in_mass"))
        )
        dangling = (
            ranks.join(out_deg, "v", "left_anti")
            .agg(F.coalesce(F.sum("rank"), F.lit(0.0)).alias("d"))
            .collect()[0]["d"]
        )
        base = (1.0 - damping) / n + damping * dangling / n
        ranks = (
            verts.join(contribs, "v", "left")
            .fillna(0.0, subset=["in_mass"])
            .select(
                "v",
                (F.lit(base) + F.lit(damping) * F.col("in_mass")).alias("rank"),
            )
            .localCheckpoint()  # cuts the lineage the next iteration replans
        )
    return ranks


def pagerank_np(edges: np.ndarray, n_iters: int = 10, damping: float = 0.85) -> np.ndarray:
    """Numpy reference PageRank (same semantics as :func:`pagerank_spark`).

    Returns a dense rank vector indexed by vertex id; vertices that
    never appear in the edge list get rank 0.
    """
    n_ids = int(edges.max()) + 1 if len(edges) else 0
    present = np.zeros(n_ids, dtype=bool)
    present[edges.ravel()] = True
    n = int(present.sum())
    out_deg = np.bincount(edges[:, 0], minlength=n_ids)
    rank = np.where(present, 1.0 / n, 0.0)
    for _ in range(n_iters):
        contrib = np.zeros(n_ids)
        w = rank[edges[:, 0]] / out_deg[edges[:, 0]]
        np.add.at(contrib, edges[:, 1], w)
        dangling = rank[present & (out_deg == 0)].sum()
        base = (1.0 - damping) / n + damping * dangling / n
        rank = np.where(present, base + damping * contrib, 0.0)
    return rank
