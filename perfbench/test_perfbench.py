"""Self-test of the benchmark on the ``test`` preset.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibration import REF_S, to_ref  # noqa: E402
from perfbench.checks import GAS_ITERS, CheckFailure, check_spark_metrics, replica_counts  # noqa: E402
from perfbench.run import Gate, graph_seeds  # noqa: E402
from perfbench.workloads import OPS, WORKLOADS  # noqa: E402
from repro.graphgen.catalog import standin_edges  # noqa: E402
from repro.metrics import load_balance_np, replication_factor_np  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--preset", "test")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] != 0, m["name"]


def test_to_ref_rescales_only_this_process_cpu_share():
    assert to_ref(2.0, 2.0, REF_S / 2) == pytest.approx(4.0)  # all CPU, host twice the reference speed
    assert to_ref(2.0, 1.0, REF_S * 2) == pytest.approx(1.5)  # half CPU, host at half speed
    assert to_ref(2.0, 0.0, REF_S * 2) == pytest.approx(2.0)  # waiting on the JVM is kept as measured


def test_graph_seeds_start_with_the_seed_and_repeat():
    assert graph_seeds(7, 4) == graph_seeds(7, 4)
    assert graph_seeds(7, 4)[0] == 7 and len(set(graph_seeds(7, 4))) == 4
    assert graph_seeds(None, 1) == [None]
    assert graph_seeds(7, 4) != graph_seeds(8, 4)


class _Corrupting:
    """Wraps an operation and damages the partition array it returns."""

    def __init__(self, op, damage):
        self.op, self.damage = op, damage

    def run(self, tracer=None):
        r = self.op.run()
        for part in r.parts.values():
            self.damage(part)
        return r

    def check(self, r):
        self.op.check(r)


@pytest.mark.parametrize("name", ["web-k64", "competitors-k64"])
def test_corrupted_partition_counts_as_failure(name):
    wl = WORKLOADS[name]
    edges = standin_edges(wl.graph, "test", 1)
    op = OPS[wl.family](edges, wl.k)
    cap = math.ceil(len(edges) / wl.k)

    def out_of_range(part):
        part[0] = wl.k

    def overfull(part):
        part[: cap + 1] = 0

    gate = Gate()
    assert gate.run(op) is not None
    assert gate.run(_Corrupting(op, out_of_range)) is None
    assert gate.run(_Corrupting(op, overfull)) is None
    assert (gate.attempted, gate.failed) == (3, 2)


def test_spark_metric_mismatch_is_a_failure():
    edges = standin_edges("IN", "test", 1)
    part = np.arange(len(edges)) % 64
    n_pairs, n_v = replica_counts(edges, part, 64)
    ok = dict(
        rf=replication_factor_np(edges, part, 64),
        balance=load_balance_np(part, 64),
        comm=2 * GAS_ITERS * (n_pairs - n_v),
        skew_edges=len(edges),
    )
    check_spark_metrics(edges, part, 64, **ok)
    for key, bad in [("rf", ok["rf"] * 1.01), ("balance", 1.5), ("comm", ok["comm"] + 2), ("skew_edges", 1)]:
        with pytest.raises(CheckFailure):
            check_spark_metrics(edges, part, 64, **{**ok, key: bad})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "--workload", "web-k64", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
