"""GAS-substrate demo: PageRank communication cost per partitioner.

The paper's Q5 (Figure 11, figures out of scope) deploys partitioners
on PowerGraph and measures PageRank time + communication. This job
exercises the same mechanism on the GAS substrate: replica-sync
messages per iteration as a function of the partitioner, on one web and
one social stand-in.

Run: ``spark-submit jobs/gas_pagerank.py [--preset bench]``
"""
from __future__ import annotations

import argparse

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.api import run_partitioner_spark
from repro.core.stream import edges_to_df
from repro.gas.pagerank import communication_cost
from repro.graphgen.catalog import standin_edges
from repro.metrics import replication_factor

METHODS = ["Random", "DBH", "HDRF", "2PS-L", "CLUGP", "S5P"]


def gas_table(
    spark: SparkSession, names: list[str] | None = None, k: int = 32,
    preset: str = "bench", n_iters: int = 10,
) -> pd.DataFrame:
    """Communication cost of ``n_iters`` PageRank iterations per method."""
    rows = []
    for name in names or ["IN", "OK"]:
        edges_df = edges_to_df(spark, standin_edges(name, preset))
        edges_df.cache().count()
        for meth in METHODS:
            assign, _ = run_partitioner_spark(spark, edges_df, meth, k)
            assign.cache().count()
            rows.append(
                {
                    "graph": name,
                    "method": meth,
                    "rf": round(replication_factor(edges_df, assign), 3),
                    "comm_messages": communication_cost(edges_df, assign, n_iters),
                }
            )
            assign.unpersist()
        edges_df.unpersist()
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", default="bench", choices=["test", "bench", "full"])
    ap.add_argument("--k", type=int, default=32)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("gas-pagerank").getOrCreate()
    print(gas_table(spark, k=args.k, preset=args.preset).to_string(index=False))


if __name__ == "__main__":
    main()
