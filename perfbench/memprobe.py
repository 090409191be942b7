"""Peak memory of one untimed operation, in a fresh process.

    python3 perfbench/memprobe.py --workload NAME [--seed N] [--preset P]

Prints ``{"peak_mem_mb": ...}``: the growth of the process's peak resident
set (``VmHWM``, reset through ``/proc/self/clear_refs`` after the input is
built) over its resident set before the operation. ``run.py`` starts this
with fixed glibc ``MALLOC_MMAP_THRESHOLD_``/``MALLOC_TRIM_THRESHOLD_``, so
freed blocks return to the system and the resident set follows live
allocations. On the two S5P workloads this reads within 0.5% of the
``tracemalloc`` peak, at a tenth of the cost: ``tracemalloc`` slows these
operations 15–25×.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--preset", default=None)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]

    from repro.graphgen.catalog import standin_edges
    from perfbench.workloads import OPS, WORKLOADS

    wl = WORKLOADS[args.workload]
    op = OPS[wl.family](standin_edges(wl.graph, args.preset or wl.preset, args.seed), wl.k)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")  # VmHWM := VmRSS
    base = _status_kb("VmRSS")
    op.run()
    print(json.dumps({"peak_mem_mb": (_status_kb("VmHWM") - base) / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
