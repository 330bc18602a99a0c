"""Statistics helpers: time-binned utilization and percentiles.

The paper measures NIC bandwidth utilization at 10 us granularity (§2.2) and
reports tail percentiles (P99, P99.99).  These helpers turn packet
(timestamp, size) streams into exactly those numbers.  Latency percentiles
use only the standard library; the utilization series work on the trace
generators' numpy arrays and import numpy where they run.
"""

from __future__ import annotations

from math import nan
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np   # annotations only; the functions import it

__all__ = [
    "bin_bandwidth",
    "percentile",
    "utilization_percentile",
    "utilization_series",
    "summarize_latencies",
]


def percentile(samples: Iterable[float], q):
    """The ``q``-th percentile (0 <= q <= 100) of ``samples``, NaN for none.

    Bit-equal to ``numpy.percentile``'s default linear method: index
    ``(n - 1) * (q / 100)`` into the sorted samples, interpolated from the
    nearer neighbour as numpy's ``_lerp`` does.  A sequence of ``q`` gives
    a list, read from one sort.
    """
    ordered = sorted(samples)
    if isinstance(q, (int, float)):
        return _ranked(ordered, q)
    return [_ranked(ordered, one) for one in q]


def _ranked(ordered: list, q: float) -> float:
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    n = len(ordered)
    if not n:
        return nan
    index = (n - 1) * (q / 100)
    lo = int(index)
    if lo >= n - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    t, d = index - lo, b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def bin_bandwidth(times_s: np.ndarray, sizes_bytes: np.ndarray,
                  duration_s: float, bin_s: float = 10e-6) -> np.ndarray:
    """Bytes per bin for a packet stream over ``[0, duration_s)``."""
    import numpy as np
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
    import numpy as np
    per_bin = bin_bandwidth(np.asarray(times_s), np.asarray(sizes_bytes),
                            duration_s, bin_s)
    return per_bin / (link_bytes_per_sec * bin_s)


def utilization_percentile(times_s, sizes_bytes, duration_s: float,
                           link_bytes_per_sec: float, q: float,
                           bin_s: float = 10e-6) -> float:
    """The paper's headline metric, e.g. q=99.99 for P99.99 utilization."""
    import numpy as np
    series = utilization_series(times_s, sizes_bytes, duration_s,
                                link_bytes_per_sec, bin_s)
    return float(np.percentile(series, q))


def summarize_latencies(latencies_us: Sequence[float]) -> dict:
    """Count and P50/P90/P99/P999, the set used across Figures 8-12."""
    p50, p90, p99, p999 = percentile(latencies_us, (50, 90, 99, 99.9))
    return {"count": len(latencies_us), "p50": p50, "p90": p90, "p99": p99,
            "p999": p999}
