"""Edge-stream model S_G = {e_1, ..., e_|E|} (Section 2.1).

The stream is a Spark DataFrame ``(eid, src, dst)`` where ``eid`` is the
arrival order. Bulk dataflow (degrees, counts) is expressed in the
DataFrame API; the sequential single-pass algorithms consume the stream
as ordered numpy arrays on the driver (DESIGN.md §6). The stream and
the assignment cross between numpy and Spark here, as Arrow.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def columns_to_df(spark: SparkSession, **cols: np.ndarray) -> DataFrame:
    """Send equal-length integer columns to Spark as ``bigint`` columns.

    A ``pyarrow.Table`` is sent as Arrow whatever
    ``spark.sql.execution.arrow.pyspark.enabled`` says, while a pandas
    frame with Arrow off (Spark's default, which the jobs run with) is
    converted row by row in Python. The schema comes from the Arrow
    types, so an empty stream needs no inference. The result has at most
    ``defaultParallelism`` partitions, the layout ``parallelize`` gives;
    the coalesce needs no shuffle.

    The table arrives as a local relation that holds its rows in the
    query plan, and planning every later query on it costs time in
    proportion to them. ``localCheckpoint`` materializes the rows once
    and puts an RDD in the plan's place.
    """
    table = pa.table({name: np.asarray(c, dtype=np.int64) for name, c in cols.items()})
    return (
        spark.createDataFrame(table)
        .coalesce(spark.sparkContext.defaultParallelism)
        .localCheckpoint()
    )


def hash_partition(df: DataFrame, key: str) -> DataFrame:
    """Hash-partition ``df`` on ``key`` into ``defaultParallelism`` partitions.

    An aggregation grouped on ``key``, alone or with more columns, then
    plans no exchange of its own. So a metric shuffles once, sized to the
    cores, where Spark would shuffle once per aggregation into
    ``spark.sql.shuffle.partitions`` partitions (200 by default). At the
    size of one stream the cost of a shuffle is its tasks, not its rows.
    """
    return df.repartition(df.sparkSession.sparkContext.defaultParallelism, key)


def edges_to_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """Materialize a numpy ``(m, 2)`` edge list as a stream DataFrame."""
    return columns_to_df(
        spark, eid=np.arange(len(edges)), src=edges[:, 0], dst=edges[:, 1]
    )


def df_to_edges(edges_df: DataFrame) -> np.ndarray:
    """Collect a stream DataFrame back to an arrival-ordered numpy array."""
    t = edges_df.select("eid", "src", "dst").toArrow()
    order = np.argsort(t["eid"].to_numpy())
    return np.column_stack(
        [t["src"].to_numpy()[order], t["dst"].to_numpy()[order]]
    ).astype(np.int64, copy=False)


def degrees_df(edges_df: DataFrame) -> DataFrame:
    """Undirected degree of every vertex, as ``(v, degree)``.

    Parallel edges count once per occurrence (the stream model has no
    dedup pass), matching the sequential algorithms' degree counters.
    """
    ends = edges_df.select(F.explode(F.array("src", "dst")).alias("v"))
    return hash_partition(ends, "v").groupBy("v").agg(F.count("*").alias("degree"))


def degrees_np(edges: np.ndarray, n_vertices: int | None = None) -> np.ndarray:
    """Driver-side degree array (index = vertex id), same semantics."""
    if n_vertices is None:
        n_vertices = int(edges.max()) + 1 if len(edges) else 0
    return np.bincount(edges.ravel(), minlength=n_vertices).astype(np.int64)


#: Edges in one stream chunk: the unit of every per-edge pass after Alg. 1.
STREAM_CHUNK = 8192


def chunk_slices(n_edges: int) -> Iterator[slice]:
    """Slices that cut a stream of ``n_edges`` edges into chunks.

    The per-edge passes after Alg. 1 (Θ, Alg. 3) walk the stream through
    them, so their numpy temporaries are O(chunk) rather than O(|E|).
    """
    for s in range(0, n_edges, STREAM_CHUNK):
        yield slice(s, s + STREAM_CHUNK)


def iter_chunks(*cols: np.ndarray) -> Iterator[tuple[int, Iterator[tuple]]]:
    """Yield ``(start, rows)`` per chunk of equal-length columns.

    ``rows`` zips the chunk's columns as Python scalars. The sequential
    passes (Alg. 1, 2PS-L's phase 2) index Python lists with them: a
    numpy scalar costs an interpreter round trip per element. Converting
    one chunk at a time keeps the Python copy of the stream O(chunk).
    """
    for sl in chunk_slices(len(cols[0])):
        yield sl.start, zip(*(c[sl].tolist() for c in cols))
