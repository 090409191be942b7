"""The benchmark's workloads and the one operation each of them repeats.

Every operation calls the program's public functions and nothing else;
nothing under ``src/`` is patched. An operation runs untraced (a
:class:`~perfbench.tracing.NullTracer`, timed for the end-to-end figures)
or traced (spans around each layer call, for the per-layer figures).
See ``perfbench/README.md`` for why each workload exists.
"""
from __future__ import annotations

import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.api import PARTITIONERS, run_partitioner, run_partitioner_spark
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges
from repro.core.s5p import s5p_partition_np
from repro.core.stream import df_to_edges, edges_to_df
from repro.core.theta import CMSTheta, ExactTheta
from repro.gas.pagerank import communication_cost
from repro.metrics import load_balance, load_balance_np, replication_factor, replication_factor_np
from repro.skew.metrics import skewness_metrics

from .checks import GAS_ITERS, CheckFailure, check_partition, check_spark_metrics
from .tracing import NullTracer, SparkJobCounter


@dataclass(frozen=True)
class Workload:
    """One named input and the operation the benchmark repeats on it."""

    name: str
    graph: str  # catalog stand-in passed to ``standin_edges``
    preset: str
    k: int
    family: str  # "s5p", "spark" or "baselines": which operation runs
    graphs: int  # graphs per run: the seed's own, then ones from derived seeds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("social-k256", "OK", "full", 256, "s5p", 4),
        Workload("web-k64", "IN", "full", 64, "s5p", 4),
        Workload("spark-cell", "IN", "bench", 64, "spark", 2),
        Workload("competitors-k64", "LJ", "full", 64, "baselines", 1),
    )
}

#: Table-3 competitors and the span each call is recorded under.
COMPETITORS = {"2PS-L": "baselines.twops", "CLUGP": "baselines.clugp", "HDRF": "baselines.hdrf"}

#: Spark-layer calls, each under its own job group.
SPARK_CALLS = (
    "edges_to_df",
    "skewness_metrics",
    "run_partitioner_spark",
    "replication_factor",
    "load_balance",
    "communication_cost",
    "df_to_edges",
)


class Stopwatch:
    """Wall time and this process's CPU time over an operation's timed parts."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def timed(self):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0


@dataclass
class OpResult:
    """What one operation produced, and how long its timed part took."""

    clock: Stopwatch
    parts: dict[str, np.ndarray]
    rf: dict[str, float]
    balance: float
    peak_mem_mb: float | None = None  # only the Spark path measures it in-line
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts (traced)
    timings: dict[str, float] = field(default_factory=dict)  # S5PStats.timings (traced)
    spark_work: dict[str, dict[str, int]] = field(default_factory=dict)
    spark_outputs: dict[str, int] = field(default_factory=dict)  # skew n_edges, GAS messages

    @property
    def seconds(self) -> float:
        return self.clock.wall


def _quality(edges: np.ndarray, parts: dict[str, np.ndarray], k: int) -> tuple[dict[str, float], float]:
    rf = {m: replication_factor_np(edges, p, k) for m, p in parts.items()}
    return rf, max(load_balance_np(p, k) for p in parts.values())


def traced_s5p(edges: np.ndarray, k: int, tr) -> tuple[np.ndarray, dict[str, float]]:
    """S5P stage by stage, with ``s5p_partition_np``'s default arguments.

    Returns the partition and the stage counts. ``CMSTheta.pairs`` runs in
    the Θ span here; ``S5PStats.timings`` books it under the game.
    """
    with tr.span("clustering"):
        cl = skewness_aware_clustering(edges, k)
    with tr.span("theta"):
        theta = CMSTheta()
        cu, cv = cl.cut_pairs
        theta.add_pairs(cu, cv)
        pairs = theta.pairs()
    with tr.span("game"):
        game = stackelberg_game(cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, pairs, k)
    with tr.span("postprocess"):
        part = assign_edges(cl.edge_cu, cl.edge_cv, cl.edge_is_head, game.c2p, k)

    exact = ExactTheta()  # outside every span: the reference for the CMS error
    exact.add_pairs(cu, cv)
    lo, hi, true_w = exact.pairs()
    if not (np.array_equal(lo, pairs[0]) and np.array_equal(hi, pairs[1])):
        raise CheckFailure("CMSTheta and ExactTheta disagree on the set of cluster pairs")
    loads = np.bincount(game.c2p, weights=cl.cluster_sizes, minlength=k)
    counts = {
        "clustering.n_clusters": cl.n_clusters,
        "clustering.n_head_clusters": int(cl.cluster_is_head.sum()),
        "clustering.max_volume_over_kappa": float(cl.cluster_volume.max() / cl.kappa),
        "clustering.n_oversize": int((cl.cluster_sizes > len(edges) / k).sum()),
        "theta.pair_inserts": len(cu),
        "theta.distinct_pairs": len(lo),
        "theta.bytes": theta.nbytes,
        "theta.cms_mean_overestimate": float((pairs[2] - true_w).mean()),
        "game.rounds": game.rounds,
        "game.converged": int(game.converged),
        "game.load_max_over_mean": float(loads.max() / loads.mean()),
        "game.welfare": float(game.welfare),
        "postprocess.overflow_share": float(
            ((part != game.c2p[cl.edge_cu]) & (part != game.c2p[cl.edge_cv])).mean()
        ),
    }
    return part, counts


class S5POp:
    """``s5p_partition_np(edges, k)``; traced, the four stages one by one."""

    def __init__(self, edges: np.ndarray, k: int, spark=None) -> None:
        self.edges, self.k = edges, k

    def run(self, tr=NullTracer()) -> OpResult:
        edges, k = self.edges, self.k
        clock = Stopwatch()
        if not tr.enabled:
            with clock.timed():
                part, _ = s5p_partition_np(edges, k)
            return OpResult(clock, {"S5P": part}, *_quality(edges, {"S5P": part}, k))
        with clock.timed(), tr.span("op"):
            part, counts = traced_s5p(edges, k, tr)
        with tr.span("crosscheck"), tr.span("s5p.s5p_partition_np"):
            ref, stats = s5p_partition_np(edges, k)
        counts["traced.matches_pipeline"] = int(np.array_equal(part, ref))
        rf, bal = _quality(edges, {"S5P": part}, k)
        return OpResult(clock, {"S5P": part}, rf, bal, counts=counts, timings=dict(stats.timings))

    def check(self, r: OpResult) -> None:
        check_partition(r.parts["S5P"], len(self.edges), self.k, "S5P")


class BaselinesOp:
    """2PS-L, CLUGP and HDRF called one after another, as the Table-3 job does."""

    def __init__(self, edges: np.ndarray, k: int, spark=None) -> None:
        self.edges, self.k = edges, k

    def run(self, tr=NullTracer()) -> OpResult:
        parts, clock = {}, Stopwatch()
        with clock.timed(), tr.span("op"):
            for method, span in COMPETITORS.items():
                with tr.span(span):
                    parts[method] = PARTITIONERS[method](self.edges, self.k)
        return OpResult(clock, parts, *_quality(self.edges, parts, self.k))

    def check(self, r: OpResult) -> None:
        for method, part in r.parts.items():
            check_partition(part, len(self.edges), self.k, method)


class SparkCellOp:
    """One graph through the Spark job path, in the order the jobs run it.

    Timed as the jobs pay for it: ``run_partitioner_spark`` includes the
    ``tracemalloc`` wrapper of ``run_partitioner``, and its peak is the
    workload's ``peak_mem_mb``.
    """

    def __init__(self, edges: np.ndarray, k: int, spark) -> None:
        self.edges, self.k, self.spark = edges, k, spark
        self.jobs = SparkJobCounter(spark)

    def run(self, tr=NullTracer()) -> OpResult:
        spark, edges, k, group = self.spark, self.edges, self.k, self.jobs.group
        clock = Stopwatch()
        with clock.timed(), tr.span("op"):
            with tr.span("stream.edges_to_df"), group("edges_to_df"):
                edges_df = edges_to_df(spark, edges)
                edges_df.cache().count()
            with tr.span("skew.skewness_metrics"), group("skewness_metrics"):
                skew = skewness_metrics(edges_df)
            with tr.span("api.run_partitioner_spark"), group("run_partitioner_spark"):
                assign, stats = run_partitioner_spark(spark, edges_df, "S5P", k)
                assign.cache().count()
            with tr.span("metrics.replication_factor"), group("replication_factor"):
                rf = replication_factor(edges_df, assign)
            with tr.span("metrics.load_balance"), group("load_balance"):
                bal = load_balance(assign, k)
            with tr.span("gas.communication_cost"), group("communication_cost"):
                comm = communication_cost(edges_df, assign, GAS_ITERS)

        counts: dict[str, float] = {}
        if tr.enabled:  # the same input through each inner layer, untimed
            with tr.span("crosscheck"):
                with tr.span("stream.df_to_edges"), group("df_to_edges"):
                    collected = df_to_edges(edges_df)
                with tr.span("api.run_partitioner"):
                    run_partitioner(collected, "S5P", k)
                with tr.span("s5p.s5p_partition_np"):
                    ref, s5p_stats = s5p_partition_np(collected, k)
                part, counts = traced_s5p(collected, k, tr)
            counts["traced.matches_pipeline"] = int(np.array_equal(part, ref))

        with clock.timed(), tr.span("op"), tr.span("spark.unpersist"):
            assign.unpersist()
            edges_df.unpersist()

        pdf = assign.toPandas().sort_values("eid")  # untimed: the check's input
        if not np.array_equal(pdf["eid"].to_numpy(), np.arange(len(edges))):
            raise CheckFailure("assignment DataFrame does not hold eids 0..|E|-1 once each")
        return OpResult(
            clock,
            {"S5P": pdf["partition"].to_numpy(dtype=np.int64)},
            {"S5P": rf},
            bal,
            peak_mem_mb=stats.peak_mem_mb,
            counts=counts,
            timings=dict(s5p_stats.timings) if tr.enabled else {},
            spark_work=self.jobs.drain(),
            spark_outputs={"skew_edges": skew["n_edges"], "comm": comm},
        )

    def check(self, r: OpResult) -> None:
        part = r.parts["S5P"]
        check_partition(part, len(self.edges), self.k, "S5P")
        check_spark_metrics(self.edges, part, self.k, rf=r.rf["S5P"], balance=r.balance, **r.spark_outputs)
        failed = sum(c["failed_tasks"] for c in r.spark_work.values())
        if failed:
            raise CheckFailure(f"{failed} Spark tasks failed")


OPS = {"s5p": S5POp, "spark": SparkCellOp, "baselines": BaselinesOp}


def start_spark(out_dir: Path):
    """A local session with the jobs' SQL settings; only the master is chosen.

    Arrow, AQE and shuffle partitions keep Spark's defaults, which the
    jobs run with. The UI is off, the driver binds to loopback and every
    scratch file stays under ``out_dir``.
    """
    from pyspark.sql import SparkSession

    n = min(4, os.cpu_count() or 1)
    local = out_dir / "spark-local"
    tmp = out_dir / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)  # overrides spark.local.dir when set
    # Also reaches the launcher JVM that spark-submit starts first.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    spark = (
        SparkSession.builder.master(f"local[{n}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(local))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def spark_settings(spark) -> dict[str, str]:
    """The effective settings the Spark figures depend on."""
    conf = spark.conf
    return {
        "master": spark.sparkContext.master,
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
    }


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:  # a JVM that ignores EOF is killed
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None
