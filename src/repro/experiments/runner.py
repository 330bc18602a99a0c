"""Run every experiment in sequence (``python -m repro.experiments.runner``).

Set ``OASIS_SCALE`` (e.g. 0.2) to shrink simulated durations for a quick
pass; the default regenerates every table and figure at full scale.
"""

from __future__ import annotations

import time

from . import fig2, fig3, fig6, fig8, fig9, fig10, fig11, fig12, fig13, fig14
from . import table1, table2, table3

__all__ = ["ALL_EXPERIMENTS", "main"]

ALL_EXPERIMENTS = [
    ("Table 1 (device parameters)", table1),
    ("Figure 2 (stranding vs pod size)", fig2),
    ("Figure 3 (bursty rack traffic)", fig3),
    ("Table 2 (P99.99 utilization)", table2),
    ("Figure 6 (message channel designs)", fig6),
    ("Figure 8 (web application overhead)", fig8),
    ("Figure 9 (memcached overhead)", fig9),
    ("Figure 10 (UDP echo overhead)", fig10),
    ("Figure 11 (overhead breakdown)", fig11),
    ("Table 3 (CXL link bandwidth)", table3),
    ("Figure 12 (trace-replay multiplexing)", fig12),
    ("Figure 13 (UDP failover)", fig13),
    ("Figure 14 (memcached failover)", fig14),
]


def main() -> None:
    for title, module in ALL_EXPERIMENTS:
        print("=" * 72)
        print(title)
        print("=" * 72)
        start = time.time()
        module.main()
        print(f"[{title}: {time.time() - start:.1f}s]")
        print()


if __name__ == "__main__":
    main()
