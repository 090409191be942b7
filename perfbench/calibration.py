"""A fixed reference kernel that tracks how fast the host runs right now.

The host this benchmark runs on shares its cores: the same S5P operation
reads 1.0 s in one minute and 1.7 s a few minutes later, in user CPU time
as much as in wall time. The kernel below does the kinds of work the
program does (a Python loop of numpy scalar reads and writes, then
whole-array sorts and counts) on inputs fixed here, so it never changes
with the program. ``run.py`` runs it after every measured operation and
rescales the CPU time its own process spent in each timed part by
``REF_S`` over the kernel's mean time in the run (:func:`to_ref`).

Over 30-s windows in one process, the loop alone under-corrects the
operation's drift and the array passes alone over-correct it; together
they follow it with a slope of about 1 and leave a third to a half of its
spread (S5P on the IN stand-in, and ``run_partitioner`` on the ``bench``
preset, in two five-minute stretches in which the host slowed by up to
45%). Kernel runs during set-up are not used: in a young process they
read up to 50% slow.

``REF_S`` makes the result a time again: the time the work would take on
a host where the kernel takes ``REF_S`` seconds, about its time on the
4-core host this was built on.
"""
from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel takes on the reference host.
REF_S = 0.2
_N_V = 20_000
_RNG = np.random.default_rng(20241017)
_PAIRS = _RNG.integers(0, _N_V, size=(40_000, 2))
_KEYS = _RNG.integers(0, 1 << 40, size=400_000)


def _kernel() -> int:
    src, dst = _PAIRS[:, 0], _PAIRS[:, 1]
    vol = np.zeros(_N_V, dtype=np.float64)
    label = np.full(_N_V, -1, dtype=np.int64)
    next_id = 0
    for i in range(len(src)):
        u = int(src[i]); v = int(dst[i])
        if label[u] < 0:
            label[u] = next_id; next_id += 1
        if label[v] < 0:
            label[v] = next_id; next_id += 1
        vol[u] += 1; vol[v] += 1
        if vol[u] <= vol[v]:
            label[u] = label[v]
    # Whole-array passes over a few MB, which stress memory more than the loop.
    order = np.argsort(_KEYS, kind="stable")
    _, inverse = np.unique(_KEYS[order] % 50_000, return_inverse=True)
    return int(np.bincount(inverse).max()) + next_id


def to_ref(wall: float, cpu: float, kernel_s: float) -> float:
    """Seconds a timed part would take on the reference host.

    Only the share of ``wall`` this process spent on its own CPU is
    rescaled, by ``REF_S / kernel_s``. The rest (the Spark JVM's work,
    waits on it) is kept as measured: the kernel runs in this process and
    does not say how fast the JVM's threads ran.
    """
    busy = min(cpu / wall, 1.0) if wall > 0 else 0.0
    return wall * ((1.0 - busy) + busy * REF_S / kernel_s)


def calibrate(reps: int = 1) -> list[float]:
    """Seconds of each of ``reps`` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times
