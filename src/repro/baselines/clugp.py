"""CLUGP (Kong, Xie, Zhang — ICDE'22): clustering + static game.

The strongest published competitor and the paper's closest relative. It
sits in S5P's clustering–refinement framework and differs by Table-1
row, so it runs S5P's pipeline (:func:`repro.core.s5p.s5p_partition_np`)
at these arguments (Section 3):

* clustering is **skewness-oblivious** with *splitting*: β = ∞, so
  every edge is tail and volumes are tracked with *local* degrees, and
  ``split=True`` restarts a vertex whose cluster is full in a new one
  (Table 1 row "CLUGP-Clustering");
* Θ is exact (no sketch);
* the refinement game is **static** (simultaneous-move, one player
  class) rather than a sequential Stackelberg game: ``one_stage=True``,
  and β = ∞ leaves no head cluster to lead;
* postprocessing maps edges through cluster partitions under the same
  load cap τ; with no head edges, every overflow scan runs last → first.
"""
from __future__ import annotations

import numpy as np

from repro.core.s5p import s5p_partition_np


def clugp_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run CLUGP (clustering → exact Θ → static game → postprocess)."""
    part, _ = s5p_partition_np(
        edges, k, tau=tau, beta=np.inf, split=True, use_cms=False, one_stage=True
    )
    return part
