"""In-memory spans and Spark job counts, recorded from outside the program.

A span is one call into a layer: name, start, end, parent span and the
operation it belongs to. Spans stay in a list until the run ends; the
runner writes them out then. A layer's self time is its span's duration
minus the time its child spans cover.

Spark work is counted through ``statusTracker``: every Spark-layer call
runs under its own job group, and the jobs, completed tasks and failed
tasks of that group are read back after the operation.
"""
from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Records nested spans; ``op`` tags every span opened under it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def operation(self, op_id: str) -> Iterator[None]:
        prev, self.op = self.op, op_id
        try:
            yield
        finally:
            self.op = prev

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op_id: str) -> dict[str, float]:
        """Summed self time per span name over the spans of one operation."""
        spans = [s for s in self.spans if s["op"] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def durations(self, op_id: str) -> dict[str, float]:
        """Summed wall duration per span name over one operation."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] == op_id:
                out[s["name"]] += s["end"] - s["start"]
        return dict(out)


class NullTracer:
    """Stand-in used by untraced operations: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


class SparkJobCounter:
    """Runs each Spark-layer call under a unique job group and counts its work."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self._ids = itertools.count()
        self._groups: list[tuple[str, str]] = []

    @contextmanager
    def group(self, call: str) -> Iterator[None]:
        gid = f"perfbench-{next(self._ids)}-{call}"
        self.sc.setJobGroup(gid, call)
        self._groups.append((call, gid))
        yield

    def drain(self) -> dict[str, dict[str, int]]:
        """Jobs, completed tasks and failed tasks per call since the last drain."""
        try:  # let the listener bus post the last task-end events
            self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        except Exception:  # noqa: BLE001 - best effort; counts may then lag
            time.sleep(0.2)
        tracker = self.sc.statusTracker()
        out: dict[str, dict[str, int]] = {}
        seen: set[int] = set()  # a skipped stage is listed by every job reusing it
        for call, gid in self._groups:
            c = out.setdefault(call, {"jobs": 0, "tasks": 0, "failed_tasks": 0})
            for job_id in tracker.getJobIdsForGroup(gid):
                c["jobs"] += 1
                job = tracker.getJobInfo(job_id)
                for stage_id in set(job.stageIds if job else ()) - seen:
                    seen.add(stage_id)
                    stage = tracker.getStageInfo(stage_id)
                    if stage is not None:
                        c["tasks"] += stage.numCompletedTasks
                        c["failed_tasks"] += stage.numFailedTasks
        self._groups.clear()
        return out
