"""Uniform runner and registry for all partitioners.

Every partitioner has the numpy signature ``fn(edges, k, **kw) ->
per-edge partition array``; the registry maps the names used in the
paper's tables onto them. :func:`run_partitioner` adds a peak-memory
measurement (tracemalloc), the Mem column of Table 4, and the Spark
wrapper returns an assignment DataFrame. Times are taken from plain
registry calls, outside ``tracemalloc``.
"""
from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.s5p import s5p_partition_np
from repro.core.stream import columns_to_df, df_to_edges
from .clugp import clugp_partition
from .gamebased import cvsp_partition, mdsgp_partition, rmgp_partition
from .greedy import greedy_partition
from .hashing import dbh_partition, grid_partition, random_partition
from .hdrf import hdrf_partition
from .ne import ne_partition
from .twops import twops_partition


def _s5p(edges: np.ndarray, k: int, **kw) -> np.ndarray:
    part, _ = s5p_partition_np(edges, k, **kw)
    return part


PARTITIONERS: dict[str, Callable[..., np.ndarray]] = {
    "Random": random_partition,
    "DBH": dbh_partition,
    "Grid": grid_partition,
    "Greedy": greedy_partition,
    "HDRF": hdrf_partition,
    "2PS-L": twops_partition,
    "CLUGP": clugp_partition,
    "NE": ne_partition,
    "RMGP": rmgp_partition,
    "MDSGP": mdsgp_partition,
    "CVSP": cvsp_partition,
    "S5P": _s5p,
}


@dataclass
class RunStats:
    """Measured memory of one partitioner run (Table 4's Mem column)."""

    name: str
    k: int
    peak_mem_mb: float


def run_partitioner(
    edges: np.ndarray, name: str, k: int, **kwargs
) -> tuple[np.ndarray, RunStats]:
    """Run a registered partitioner and measure its peak memory.

    The call runs under ``tracemalloc``, which adds a cost per allocation
    that depends on code layout as well as on the work: on IN ``bench``
    at k=64, S5P's clustering kernel ``_allocate_migrate`` runs ≈14×
    slower traced (0.25–0.30 vs 0.018–0.020 s), Alg. 3 ≈8× and
    the game ≈8× (0.056 vs 0.007 s; its windowed sweep cut the untraced
    time more than the traced one). So time a partitioner by calling
    ``PARTITIONERS[name]`` directly, not through this wrapper.
    """
    fn = PARTITIONERS[name]
    tracemalloc.start()
    try:
        part = fn(edges, k, **kwargs)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return part, RunStats(name=name, k=k, peak_mem_mb=peak / 2**20)


def run_partitioner_spark(
    spark: SparkSession, edges_df: DataFrame, name: str, k: int, **kwargs
) -> tuple[DataFrame, RunStats]:
    """Spark wrapper: stream DataFrame in, assignment DataFrame out."""
    edges = df_to_edges(edges_df)
    part, stats = run_partitioner(edges, name, k, **kwargs)
    return columns_to_df(spark, eid=np.arange(len(part)), partition=part), stats
