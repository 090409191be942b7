"""Tables 2–5: one sweep over a fixed plan, one long results CSV.

Every graph the sweep loads gets one row of its skewness metrics (|V|,
|E|, ρ, ρ1, ρ2, ρ3; Table 2) with no method. Every partition cell gets
one ``(table, graph, preset, seed, k, method, variant)`` row with its
``rf``, ``balance``, ``time_s`` and ``mem_mb``. A graph's edge DataFrame
is built once and every method partitions the numpy edges already in
hand. ``time_s`` is the median of plain calls, outside ``tracemalloc``,
repeated until they add up to :data:`MIN_TIME_S` and at least
:data:`MIN_CALLS` times; ``mem_mb`` is the ``tracemalloc`` peak of one
more call, taken only where a table reports memory (Table 4). RF and
balance are computed in Spark from the assignment DataFrame. A cell
whose method runs over its budget (the paper's ">24 h") has NaN
measurements. Table 5's ``Opt`` is :func:`optimal_partition`'s
assignment. ``jobs/assemble_experiments.py`` renders EXPERIMENTS.md's
Tables 2–5 from the CSV.

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
from repro.core.optimal import optimal_partition
from repro.core.stream import columns_to_df, edges_to_df
from repro.graphgen.catalog import ALL_REAL, ALL_SYNTH, standin_edges, standin_seed
from repro.graphgen.tiny import OPTIMALITY_GRAPHS
from repro.metrics import load_balance, replication_factor
from repro.skew.metrics import skewness_metrics


@dataclass(frozen=True)
class Block:
    """One table's cells: every graph × k × (method, variant)."""

    table: str
    graphs: tuple[str, ...]
    preset: str
    ks: tuple[int, ...] = ()
    runs: tuple[tuple[str, str], ...] = ()  # (method, variant)
    measure_memory: bool = False
    time_budget_s: float | None = None  # passed to the BUDGETED methods


#: Keyword arguments of each variant; "default" is the method's own.
VARIANTS = {"default": {}, "exact": {"use_cms": False}}
#: The game-based methods that take a ``time_budget_s``.
BUDGETED = {"RMGP", "MDSGP", "CVSP"}
#: A cell's plain calls repeat until they add up to MIN_TIME_S seconds and
#: number at least MIN_CALLS; ``time_s`` is their median.
MIN_CALLS = 3
MIN_TIME_S = 2.0
#: The CSV's columns: the key, the cell measurements, the skewness metrics.
COLUMNS = (
    "table", "graph", "preset", "seed", "k", "method", "variant",
    "rf", "balance", "time_s", "mem_mb",
    "n_vertices", "n_edges", "rho", "rho1", "rho2", "rho3",
)
#: Integer columns that the rows of the other kind leave empty.
INT_COLUMNS = {"k": "Int64", "n_vertices": "Int64", "n_edges": "Int64", "rho3": "Int64"}

TABLE2 = Block("table2", tuple(ALL_REAL + ALL_SYNTH), "full")
TABLE3 = Block(
    "table3",
    tuple(ALL_REAL),
    "full",
    (64, 128, 256),
    (("CLUGP", "default"), ("2PS-L", "default"), ("HDRF", "default"),
     ("S5P", "default"), ("S5P", "exact")),
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
TABLE5 = Block(
    "table5",
    tuple(OPTIMALITY_GRAPHS),
    "full",
    (4,),
    tuple((m, "default") for m in ("Opt", "CLUGP", "2PS-L", "S5P")),
)
PLAN = (TABLE2, TABLE3, TABLE4, TABLE5)


def partition_fn(method: str):
    """``PARTITIONERS[method]``, or the exact optimum for ``"Opt"``.

    ``Opt`` enumerates assignments, so it is run only on Table 5's
    12–15-edge graphs and is not a registry entry.
    """
    if method == "Opt":
        return lambda edges, k: optimal_partition(edges, k)[1]
    return PARTITIONERS[method]


def measure(
    edges: np.ndarray, method: str, k: int, kwargs: dict, measure_memory: bool
) -> tuple[np.ndarray, float, float]:
    """Partition ``edges``; return the partition, its median time and peak MiB.

    The peak is NaN unless ``measure_memory``. Raises ``RuntimeError`` if
    the memory pass partitions differently from the timed calls, since
    the two passes would then describe different runs.
    """
    fn = partition_fn(method)
    times, total = [], 0.0
    while len(times) < MIN_CALLS or total < MIN_TIME_S:
        t0 = time.perf_counter()
        part = fn(edges, k, **kwargs)
        times.append(time.perf_counter() - t0)
        total += times[-1]
    mem_mb = float("nan")
    if measure_memory:
        traced, stats = run_partitioner(edges, method, k, **kwargs)
        if not np.array_equal(traced, part):
            raise RuntimeError(f"{method} k={k}: the memory pass partitioned differently")
        mem_mb = stats.peak_mem_mb
    return part, float(np.median(times)), mem_mb


def sweep(spark: SparkSession, plan: tuple[Block, ...] = PLAN) -> pd.DataFrame:
    """Run every cell of ``plan``; one row per loaded graph and one per cell."""
    rows = []
    for block in plan:
        for graph in block.graphs:
            edges = standin_edges(graph, block.preset)
            edges_df = edges_to_df(spark, edges)
            key = {
                "table": block.table,
                "graph": graph,
                "preset": block.preset,
                "seed": standin_seed(graph),
            }
            rows.append({**key, **skewness_metrics(edges_df)})
            for k in block.ks:
                for method, variant in block.runs:
                    kwargs = dict(VARIANTS[variant])
                    if method in BUDGETED and block.time_budget_s is not None:
                        kwargs["time_budget_s"] = block.time_budget_s
                    row = {**key, "k": k, "method": method, "variant": variant}
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
    return pd.DataFrame(rows, columns=COLUMNS).astype(INT_COLUMNS)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results.csv")
    args = ap.parse_args()
    spark = SparkSession.builder.appName("sweep").getOrCreate()
    sweep(spark).to_csv(args.out, index=False)


if __name__ == "__main__":
    main()
