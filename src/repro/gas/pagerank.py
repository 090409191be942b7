"""GAS-model (PowerGraph) substrate: communication cost of a partitioning.

The paper's Q5 deploys partitioners on a 32-node PowerGraph cluster and
measures PageRank runtime + communication. Our stand-in (DESIGN.md §4)
computes exactly the quantity PowerGraph's engine synchronizes: each
vertex replicated in |P(v)| partitions exchanges gather results and
apply updates between its mirrors and master every iteration, i.e.

    messages/iteration = 2 · Σ_v (|P(v)| − 1)

so communication cost is a linear function of the replication factor —
the mechanism behind the paper's "lower RF → less communication" claim.
The PageRank values themselves do not depend on the partitioning, so
they are not computed.
"""
from __future__ import annotations

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
