"""Graph skewness metrics of Section 2.3.

* regression skewness ρ: slope of the log-log degree-frequency fit,
  f(d) ∝ d^-ρ (zero-frequency degrees dropped, as the paper notes the
  log transform cannot handle them);
* Pearson's first skewness ρ1 = (mean - mode)/σ and second skewness
  ρ2 = 3(mean - median)/σ of the degree distribution;
* planarization skewness ρ3 = |E| - (3|V| - 6).

Degrees come from the Spark stream (``stream.degrees_df``); the moment
computations run on the collected degree vector (O(|V|), small).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.stream import degrees_df


def regression_rho(degrees: np.ndarray) -> float:
    """Power-law exponent from a least-squares log-log fit.

    The slope is the closed form Σ(x − x̄)(y − ȳ) / Σ(x − x̄)² on plain
    numpy sums, so ρ has the same bits in every process (``np.polyfit``
    solves through LAPACK, and its ρ moved in the last ulps between
    processes).
    """
    d, f = np.unique(degrees[degrees > 0], return_counts=True)
    if len(d) < 2:
        return float("nan")
    x = np.log(d)
    y = np.log(f)
    x -= x.mean()
    y -= y.mean()
    return float(-(x * y).sum() / (x * x).sum())


def pearson_skew(degrees: np.ndarray) -> tuple[float, float]:
    """(ρ1, ρ2): Pearson's first (mode-based) and second (median-based)."""
    if len(degrees) == 0:
        return float("nan"), float("nan")
    sigma = degrees.std()
    if sigma == 0:
        return 0.0, 0.0
    vals, counts = np.unique(degrees, return_counts=True)
    mode = vals[np.argmax(counts)]
    rho1 = float((degrees.mean() - mode) / sigma)
    rho2 = float(3 * (degrees.mean() - np.median(degrees)) / sigma)
    return rho1, rho2


def planarization_rho3(n_vertices: int, n_edges: int) -> int:
    """ρ3 = |E| - (3|V| - 6), the planarization skewness indicator."""
    return int(n_edges - (3 * n_vertices - 6))


def skewness_metrics(edges_df: DataFrame) -> dict[str, float]:
    """All four skewness metrics plus |V|, |E| for a stream DataFrame."""
    deg = degrees_df(edges_df).select("degree").toArrow()["degree"].to_numpy()
    n_v = len(deg)
    n_e = int(deg.sum()) // 2
    rho1, rho2 = pearson_skew(deg)
    return {
        "n_vertices": n_v,
        "n_edges": n_e,
        "rho": regression_rho(deg),
        "rho1": rho1,
        "rho2": rho2,
        "rho3": planarization_rho3(n_v, n_e),
    }
