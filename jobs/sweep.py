"""Tables 3 and 4: one sweep over a fixed plan, one long results CSV.

Each row is one ``(table, graph, preset, seed, k, method, variant)`` cell
with its ``rf``, ``balance``, ``time_s`` and ``mem_mb``. A graph's edge
DataFrame is built once and every method partitions the numpy edges
already in hand. ``time_s`` is the median of :data:`REPEATS` plain
registry calls, outside ``tracemalloc``; ``mem_mb`` is the ``tracemalloc``
peak of one more call, taken only where a table reports memory (Table 4).
RF and balance are computed in Spark from the assignment DataFrame. A
cell whose method runs over its budget (the paper's ">24 h") has NaN
measurements. ``jobs/assemble_experiments.py`` renders EXPERIMENTS.md's
Tables 3 and 4 from the CSV.

Run: ``python jobs/sweep.py [--out results.csv]``
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.api import PARTITIONERS, run_partitioner
from repro.baselines.gamebased import BudgetExceeded
from repro.core.stream import columns_to_df, edges_to_df
from repro.graphgen.catalog import ALL_REAL, standin_edges, standin_seed
from repro.metrics import load_balance, replication_factor


@dataclass(frozen=True)
class Block:
    """One table's cells: every graph × k × (method, variant)."""

    table: str
    graphs: tuple[str, ...]
    preset: str
    ks: tuple[int, ...]
    runs: tuple[tuple[str, str], ...]  # (method, variant)
    measure_memory: bool
    time_budget_s: float | None = None  # passed to the BUDGETED methods


#: Keyword arguments of each variant; "default" is the method's own.
VARIANTS = {"default": {}, "exact": {"use_cms": False}}
#: The game-based methods that take a ``time_budget_s``.
BUDGETED = {"RMGP", "MDSGP", "CVSP"}
#: Plain calls per cell; ``time_s`` is their median.
REPEATS = 3

TABLE3 = Block(
    "table3",
    tuple(ALL_REAL),
    "full",
    (64, 128, 256),
    (("CLUGP", "default"), ("2PS-L", "default"), ("HDRF", "default"),
     ("S5P", "default"), ("S5P", "exact")),
    measure_memory=False,
)
TABLE4 = Block(
    "table4",
    ("OK", "TW", "FR", "LJ", "WB", "G6"),
    "bench",
    (32,),
    tuple((m, "default") for m in ("RMGP", "MDSGP", "CVSP", "CLUGP", "S5P")),
    measure_memory=True,
    time_budget_s=300.0,
)
PLAN = (TABLE3, TABLE4)


def measure(
    edges: np.ndarray, method: str, k: int, kwargs: dict, measure_memory: bool
) -> tuple[np.ndarray, float, float]:
    """Partition ``edges``; return the partition, its median time and peak MiB.

    The peak is NaN unless ``measure_memory``. Raises ``RuntimeError`` if
    the memory pass partitions differently from the timed calls, since
    the two passes would then describe different runs.
    """
    fn = PARTITIONERS[method]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        part = fn(edges, k, **kwargs)
        times.append(time.perf_counter() - t0)
    mem_mb = float("nan")
    if measure_memory:
        traced, stats = run_partitioner(edges, method, k, **kwargs)
        if not np.array_equal(traced, part):
            raise RuntimeError(f"{method} k={k}: the memory pass partitioned differently")
        mem_mb = stats.peak_mem_mb
    return part, float(np.median(times)), mem_mb


def sweep(spark: SparkSession, plan: tuple[Block, ...] = PLAN) -> pd.DataFrame:
    """Run every cell of ``plan``; one row per cell."""
    rows = []
    for block in plan:
        for graph in block.graphs:
            edges = standin_edges(graph, block.preset)
            edges_df = edges_to_df(spark, edges)
            for k in block.ks:
                for method, variant in block.runs:
                    kwargs = dict(VARIANTS[variant])
                    if method in BUDGETED and block.time_budget_s is not None:
                        kwargs["time_budget_s"] = block.time_budget_s
                    row = {
                        "table": block.table,
                        "graph": graph,
                        "preset": block.preset,
                        "seed": standin_seed(graph),
                        "k": k,
                        "method": method,
                        "variant": variant,
                    }
                    try:
                        part, time_s, mem_mb = measure(
                            edges, method, k, kwargs, block.measure_memory
                        )
                    except BudgetExceeded as exc:
                        print(f"{graph}/{method}: {exc}", file=sys.stderr)
                        row.update(rf=np.nan, balance=np.nan, time_s=np.nan, mem_mb=np.nan)
                    else:
                        assign = columns_to_df(spark, eid=np.arange(len(part)), partition=part)
                        row.update(  # rf and balance unrounded: runs compare exactly
                            rf=replication_factor(edges_df, assign),
                            balance=load_balance(assign, k),
                            time_s=round(time_s, 3),
                            mem_mb=round(mem_mb, 2),
                        )
                    rows.append(row)
                    print(row, file=sys.stderr, flush=True)
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results.csv")
    args = ap.parse_args()
    spark = SparkSession.builder.appName("sweep").getOrCreate()
    sweep(spark).to_csv(args.out, index=False)


if __name__ == "__main__":
    main()
