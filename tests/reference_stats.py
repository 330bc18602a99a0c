"""Reference model of the latency summaries: the numpy code they replaced.

Until ``repro.analysis.stats.percentile``, each latency percentile copied
its ``array("d")`` record into an ndarray and called ``np.percentile``, and
the Fig 13/14 timelines were ndarrays.  This module keeps the parent
versions of ``summarize_latencies``, ``AppClient.p99_timeline`` and
``EchoStats.loss_timeline``, verbatim apart from taking the records as
arguments, as the oracle ``tests/test_stats_oracle.py`` compares against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def summarize_latencies(latencies_us: Sequence[float]) -> dict:
    """P50/P90/P99/P999 + mean, the set used across Figures 8-12."""
    arr = np.asarray(latencies_us, dtype=float)
    if arr.size == 0:
        return {"count": 0, "p50": float("nan"), "p90": float("nan"),
                "p99": float("nan"), "p999": float("nan"), "mean": float("nan")}
    return {
        "count": int(arr.size),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "p999": float(np.percentile(arr, 99.9)),
        "mean": float(arr.mean()),
    }


def p99_timeline(response_times: Sequence[float],
                 latencies_us: Sequence[float], bin_s: float,
                 duration: float) -> np.ndarray:
    """Per-bin P99 latency (Figure 14)."""
    bins = int(np.ceil(duration / bin_s))
    out = np.full(bins, np.nan)
    times = np.asarray(response_times)
    lats = np.asarray(latencies_us)
    for b in range(bins):
        mask = (times >= b * bin_s) & (times < (b + 1) * bin_s)
        if mask.any():
            out[b] = np.percentile(lats[mask], 99)
    return out


def loss_timeline(outstanding_send_times: Iterable[float], bin_s: float,
                  duration: float) -> np.ndarray:
    """Lost packets per time bin (Figure 13a)."""
    bins = int(np.ceil(duration / bin_s))
    lost = np.zeros(bins, dtype=int)
    for t in outstanding_send_times:
        lost[min(bins - 1, int(t / bin_s))] += 1
    return lost
