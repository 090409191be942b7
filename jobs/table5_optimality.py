"""Table 5: optimality study on tiny R-MAT graphs (k=4).

Exact optimum by (pruned) enumeration, then RF and approximation ratio
α = RF/Opt for CLUGP, 2PS-L and S5P — the paper's protocol on graphs of
the same (|V|, |E|).

Run: ``python jobs/table5_optimality.py`` (pure driver-side, no Spark).
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.api import PARTITIONERS
from repro.core.optimal import optimal_partition
from repro.graphgen.tiny import optimality_graphs
from repro.metrics import replication_factor_np

#: Paper Table 5: graph -> (opt, {method: (rf, alpha)})
PAPER_TABLE5 = {
    "G_alpha": (1.43, {"CLUGP": (1.86, 1.30), "2PS-L": (2.00, 1.41), "S5P": (1.71, 1.20)}),
    "G_beta": (1.63, {"CLUGP": (2.38, 1.46), "2PS-L": (2.38, 1.46), "S5P": (2.12, 1.30)}),
    "G_gamma": (1.30, {"CLUGP": (1.90, 1.46), "2PS-L": (2.00, 1.54), "S5P": (1.80, 1.38)}),
}
METHODS = ["CLUGP", "2PS-L", "S5P"]


def table5(k: int = 4) -> pd.DataFrame:
    """One row per (graph, partitioner) with RF, optimum and α."""
    rows = []
    for gname, edges in optimality_graphs().items():
        opt_rf, _ = optimal_partition(edges, k)
        paper_opt, paper_methods = PAPER_TABLE5[gname]
        for meth in METHODS:
            part = PARTITIONERS[meth](edges, k)
            rf = replication_factor_np(edges, part, k)
            p = paper_methods[meth]
            rows.append(
                {
                    "graph": gname,
                    "partitioner": meth,
                    "opt": round(opt_rf, 3),
                    "rf": round(rf, 3),
                    "alpha": round(rf / opt_rf, 3),
                    "paper_opt": paper_opt,
                    "paper_rf": p[0],
                    "paper_alpha": p[1],
                }
            )
    return pd.DataFrame(rows)


def main() -> None:
    print(table5().to_string(index=False))


if __name__ == "__main__":
    main()
