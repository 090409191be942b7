"""Correctness gate applied to every operation the benchmark runs.

A failed check raises :class:`CheckFailure`; the runner counts it, like a
raised exception, as a failed operation.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.postprocess import max_load
from repro.metrics import load_balance_np, replication_factor_np

#: Iterations the GAS job passes to ``communication_cost``.
GAS_ITERS = 10


class CheckFailure(Exception):
    """An operation produced a wrong output."""


def check_partition(part: np.ndarray, n_edges: int, k: int, method: str, tau: float = 1.0) -> None:
    """One partition id in [0, k) per edge, no partition above ⌈τ|E|/k⌉.

    All four measured methods (S5P, 2PS-L, CLUGP, HDRF) are τ-respecting.
    """
    part = np.asarray(part)
    if part.shape != (n_edges,):
        raise CheckFailure(f"{method}: {part.shape} partition ids for {n_edges} edges")
    lo, hi = int(part.min()), int(part.max())
    if lo < 0 or hi >= k:
        raise CheckFailure(f"{method}: partition ids span [{lo}, {hi}], outside [0, {k})")
    cap = max_load(n_edges, k, tau)
    biggest = int(np.bincount(part, minlength=k).max())
    if biggest > cap:
        raise CheckFailure(f"{method}: a partition holds {biggest} edges, cap is {cap}")


def replica_counts(edges: np.ndarray, part: np.ndarray, k: int) -> tuple[int, int]:
    """(Σ_v |P(v)|, |V|) of an assignment, in numpy."""
    v = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    p = np.concatenate([part, part]).astype(np.int64)
    return len(np.unique(v * np.int64(k) + p)), len(np.unique(v))


def check_spark_metrics(
    edges: np.ndarray, part: np.ndarray, k: int, *, rf: float, balance: float, comm: int, skew_edges: int
) -> None:
    """The Spark metrics agree with their numpy twins on the same assignment."""
    n_e = len(edges)
    if skew_edges != n_e:
        raise CheckFailure(f"skewness_metrics: n_edges={skew_edges}, stream has {n_e}")
    rf_np = replication_factor_np(edges, part, k)
    if not math.isclose(rf, rf_np, rel_tol=1e-12):
        raise CheckFailure(f"replication_factor: Spark {rf!r}, numpy {rf_np!r}")
    lb_np = load_balance_np(part, k)
    if not math.isclose(balance, lb_np, rel_tol=1e-12):
        raise CheckFailure(f"load_balance: Spark {balance!r}, numpy {lb_np!r}")
    n_pairs, n_v = replica_counts(edges, part, k)
    want = 2 * GAS_ITERS * (n_pairs - n_v)
    if comm != want:
        raise CheckFailure(f"communication_cost: {comm}, expected 2·{GAS_ITERS}·(Σ|P(v)| − |V|) = {want}")
