"""Statistics helpers: time-binned utilization and percentiles.

The paper measures NIC bandwidth utilization at 10 us granularity (§2.2) and
reports tail percentiles (P99, P99.99).  These helpers turn packet
(timestamp, size) streams into exactly those numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "bin_bandwidth",
    "utilization_percentile",
    "utilization_series",
    "summarize_latencies",
]


def bin_bandwidth(times_s: np.ndarray, sizes_bytes: np.ndarray,
                  duration_s: float, bin_s: float = 10e-6) -> np.ndarray:
    """Bytes per bin for a packet stream over ``[0, duration_s)``."""
    nbins = max(1, int(np.ceil(duration_s / bin_s)))
    out = np.zeros(nbins)
    if len(times_s) == 0:
        return out
    idx = np.minimum((np.asarray(times_s) / bin_s).astype(np.int64), nbins - 1)
    np.add.at(out, idx, np.asarray(sizes_bytes, dtype=float))
    return out


def utilization_series(times_s, sizes_bytes, duration_s: float,
                       link_bytes_per_sec: float, bin_s: float = 10e-6) -> np.ndarray:
    """Per-bin link utilization in [0, 1+] at ``bin_s`` granularity."""
    per_bin = bin_bandwidth(np.asarray(times_s), np.asarray(sizes_bytes),
                            duration_s, bin_s)
    return per_bin / (link_bytes_per_sec * bin_s)


def utilization_percentile(times_s, sizes_bytes, duration_s: float,
                           link_bytes_per_sec: float, q: float,
                           bin_s: float = 10e-6) -> float:
    """The paper's headline metric, e.g. q=99.99 for P99.99 utilization."""
    series = utilization_series(times_s, sizes_bytes, duration_s,
                                link_bytes_per_sec, bin_s)
    return float(np.percentile(series, q))


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
