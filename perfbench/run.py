"""Repo benchmark: S5P core, Spark job path and Table-3 competitors.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. One process sets the workload up
``SETUP_REPS`` times and reports the median: a fresh Spark session if the
workload needs one, then the workload's input graphs (the seed's own graph
and, for most workloads, more from seeds derived from it). It warms up on
the ``test`` preset, then runs its operation in a closed loop for
``--seconds``, visiting the graphs in turn: each operation starts when the
previous one has finished. Every operation's output is checked
(``perfbench/checks.py``); a raised exception or a failed check counts as a
failed operation. A fixed calibration kernel runs between the operations;
the end-to-end times are rescaled by it to a reference host speed
(``perfbench/calibration.py``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics. The last stdout line is the result object; the line
before it holds the run's metadata, which is also written, with the
spans, to ``.bench_out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
#: Untimed warm-up operations on the ``test`` preset, after set-up. The first
#: pass in a new Spark session is slow at any size (12-15 s) and the JIT
#: needs one more; the competitors' full operation would take 13 s.
WARMUP_OPS = {"s5p": 1, "spark": 2, "baselines": 1}
#: Calibration kernel runs after each operation: one per 1.5-s S5P
#: operation, four per 10-13-s Spark pass.
CAL_REPS = {"s5p": 1, "spark": 4, "baselines": 4}
#: glibc settings under which RSS follows live allocations (see memprobe.py).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}


def prepare_checkout() -> None:
    """Import the program from this checkout's ``src``, keep scratch files inside it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


class Gate:
    """Runs operations, checks their outputs and counts the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, tracer=None):
        self.attempted += 1
        try:
            r = op.run(tracer) if tracer is not None else op.run()
            op.check(r)
            return r
        except Exception as e:  # noqa: BLE001 - every failure is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _tail(xs: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(xs)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    return {"pct": pct, "value": sorted(xs)[n - 11], "samples_beyond": 10, "n": n}


def _rate(n_edges: int, times: list[list[float]]) -> float:
    """Edges of all graphs over the sum of each graph's median operation time."""
    if not all(times):
        return float("nan")
    return n_edges / sum(statistics.median(ts) for ts in times)


def graph_seeds(seed: int | None, n: int) -> list[int | None]:
    """The seed's own graph first, then ``n - 1`` graphs from seeds derived from it."""
    derived = np.random.SeedSequence(0 if seed is None else seed).generate_state(n - 1, dtype=np.uint32)
    return [seed, *(int(s) for s in derived)]


def _span_metric(name: str) -> str:
    return f"{name}_s" if "." in name else f"{name}.s"


def layer_figures(tracer, op_id: str, r) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    from perfbench.workloads import SPARK_CALLS

    out = {_span_metric(n): t for n, t in tracer.self_times(op_id).items() if n not in ("op", "crosscheck")}
    d = tracer.durations(op_id)
    if "api.run_partitioner" in d:
        out["api.tracemalloc_overhead_s"] = d["api.run_partitioner"] - d["s5p.s5p_partition_np"]
        out["api.roundtrip_s"] = d["api.run_partitioner_spark"] - d["stream.df_to_edges"] - d["api.run_partitioner"]
    out.update(r.counts)
    if r.spark_work:
        for key in ("jobs", "tasks", "failed_tasks"):
            out[f"spark.{key}"] = sum(c[key] for c in r.spark_work.values())
        for call in SPARK_CALLS:
            c = r.spark_work.get(call, {"jobs": 0, "tasks": 0})
            out[f"spark.{call}.jobs"] = c["jobs"]
            out[f"spark.{call}.tasks"] = c["tasks"]
    return out


def peak_mem_child(workload: str, seed: int | None, preset: str) -> float:
    """Peak RSS growth of one operation, measured by ``memprobe.py`` in a fresh process."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "memprobe.py"), "--workload", workload, "--preset", preset]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **MALLOC_ENV}, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise RuntimeError(f"memprobe exited {done.returncode}: {done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["peak_mem_mb"])


def run_workload(name: str, seed: int | None, seconds: float, trace: bool, preset: str | None = None):
    """Run one workload; returns (result object, metadata)."""
    import pyspark

    from repro.graphgen.catalog import standin_edges
    from perfbench.calibration import REF_S, calibrate, to_ref
    from perfbench.tracing import Tracer
    from perfbench.workloads import OPS, WORKLOADS, Stopwatch, spark_settings, start_spark, stop_spark

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[name]
    preset = preset or wl.preset
    make = OPS[wl.family]
    tracer, gate, spark = Tracer(), Gate(), None
    try:
        setup = []
        seeds = graph_seeds(seed, wl.graphs)
        for i in range(SETUP_REPS):
            if spark is not None:
                spark.stop()  # tearing down the previous session is not set-up
            clock = Stopwatch()
            with clock.timed(), tracer.operation(f"setup-{i}"):
                if wl.family == "spark":
                    spark = start_spark(OUT)
                with tracer.span("graphgen.standin_edges"):
                    graphs = [standin_edges(wl.graph, preset, s) for s in seeds]
            setup.append(clock)

        small = make(standin_edges(wl.graph, "test", seed), wl.k, spark)
        for _ in range(WARMUP_OPS[wl.family]):
            gate.run(small)
        ops = [make(edges, wl.k, spark) for edges in graphs]

        # The loop visits the graphs in turn, each at least once when untraced
        # (a traced run reports per-layer figures only and may stop sooner).
        clocks: list[list] = [[] for _ in graphs]
        must_visit = 1 if trace else len(graphs)
        last, traced = [None] * len(graphs), []
        # Calibration samples between the operations; their mean rescales every
        # time of the run, set-up included, to the reference host. Samples
        # taken during set-up read up to 50% slow (a young process's heap),
        # so there are none; the first kernel run is not kept either.
        cal_reps = CAL_REPS[wl.family]
        calibrate(1)
        kernel = calibrate(cal_reps)
        t_end = time.perf_counter() + seconds
        turn = 0
        while sum(map(bool, clocks)) < must_visit or time.perf_counter() < t_end:
            g = turn % len(ops)
            turn += 1
            r = gate.run(ops[g])
            kernel += calibrate(cal_reps)
            if r is None:
                if gate.failed >= 3:  # an operation that always fails would never fill `clocks`
                    break
                continue
            clocks[g].append(r.clock)
            last[g] = r
            if trace:
                op_id = f"op-{len(traced)}"
                with tracer.operation(op_id):
                    tr = gate.run(ops[g], tracer)
                if tr is not None:
                    traced.append((op_id, tr))

        kernel_s = statistics.fmean(kernel)
        times = [[c.wall for c in cs] for cs in clocks]
        op_ref_s = [[to_ref(c.wall, c.cpu, kernel_s) for c in cs] for cs in clocks]
        setup_s = [c.wall for c in setup]
        setup_ref_s = [to_ref(c.wall, c.cpu, kernel_s) for c in setup]
        n_edges = sum(len(edges) for edges in graphs)
        all_times = [t for ts in times for t in ts]
        meta = {
            "workload": name,
            "graph": wl.graph,
            "preset": preset,
            "seed": seed if seed is not None else "catalog default",
            "k": wl.k,
            "graphs": [
                {"seed": s if s is not None else "catalog default", "n_vertices": int(len(np.unique(edges))),
                 "n_edges": int(len(edges)), "rf_by_method": r.rf if r else None}
                for s, edges, r in zip(seeds, graphs, last)
            ],
            "samples": {"setup": len(setup_s), "ops": len(all_times), "traced_ops": len(traced)},
            "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "op_s": {"median": _median(all_times), "min": min(all_times, default=None),
                     "max": max(all_times, default=None), "by_graph": times, "tail": _tail(all_times)},
            "calibration": {"ref_s": REF_S, "kernel_mean_s": kernel_s, "kernel_all_s": kernel,
                            "op_cpu_s": [[c.cpu for c in cs] for cs in clocks], "op_ref_s": op_ref_s,
                            "setup_cpu_s": [c.cpu for c in setup],
                            "edges_per_s_raw": _rate(n_edges, times) if all(times) else None},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pyspark": pyspark.__version__,
            "spark": spark_settings(spark) if spark is not None else None,
            "loop": "closed, one client",
        }
        first = last[0]  # graph 0 is the seed's own graph: its RF is the seed value
        if not trace:
            if wl.family == "spark":
                peak = first.peak_mem_mb if first else float("nan")
                meta["peak_mem_source"] = "tracemalloc inside run_partitioner (timed call)"
            else:
                peak = peak_mem_child(name, seed, preset)
                meta["peak_mem_source"] = "RSS growth of one op in a fresh process (memprobe.py)"
            e2e = {
                "setup_s": _median(setup_ref_s),
                "edges_per_ref_s": _rate(n_edges, op_ref_s),
                "peak_mem_mb": peak,
                "rf": statistics.fmean(first.rf.values()) if first else float("nan"),
                "balance": max((r.balance for r in last if r), default=float("nan")),
            }
            metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            per_op = [layer_figures(tracer, op_id, r) for op_id, r in traced]
            figures = {k: _median([f[k] for f in per_op]) for k in (per_op[0] if per_op else {})}
            figures["graphgen.standin_edges_s"] = _median(
                [tracer.self_times(f"setup-{i}")["graphgen.standin_edges"] for i in range(SETUP_REPS)]
            )
            figures["traced.overhead_s"] = _median([r.seconds for _, r in traced]) - _median(all_times)
            meta["s5p_timings"] = traced[-1][1].timings if traced else {}

            # Layers this workload bypasses are visited once on the test preset,
            # so every trace carries the same metrics; the metadata names them.
            tour = [f for f in ("spark", "baselines") if f != wl.family]
            tour_small = standin_edges(wl.graph, "test", seed)
            from_tour = []
            for fam in tour:
                if fam == "spark" and spark is None:
                    spark = start_spark(OUT)
                    meta["spark"] = spark_settings(spark)
                op_id = f"tour-{fam}"
                with tracer.operation(op_id):
                    tr = gate.run(OPS[fam](tour_small, wl.k, spark), tracer)
                if tr is not None:
                    for k, v in layer_figures(tracer, op_id, tr).items():
                        if k not in figures:
                            figures[k] = v
                            from_tour.append(k)
            meta["from_tour"] = sorted(from_tour)
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in figures]
            if missing and gate.failed == 0:
                raise RuntimeError(f"per-layer metrics not produced: {missing}")
            metrics = {m["name"]: figures.get(m["name"], float("nan")) for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    finally:
        if spark is not None:
            stop_spark(spark)

    meta["errors"] = gate.errors
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    dump.write_text(json.dumps({"meta": meta, "result": result, "spans": tracer.spans if trace else []}))
    return result, meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="graph seed; default: the catalog's per-name seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="how long the operation loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", default=None, help="override the workload's preset (the self-test uses 'test')")
    args = ap.parse_args(argv)
    prepare_checkout()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.preset)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
