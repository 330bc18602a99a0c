"""Bursty datacenter packet-trace generator (the §2.2 rack captures).

The paper's production captures show traffic that is *extremely* bursty:
host 1 in rack A has P99 bandwidth utilization below 3 % but P99.99 around
39 % at 10 us granularity (Figure 3), and four hosts aggregated never exceed
10-20 % at P99.99 (Table 2).  That shape -- a low-rate background plus rare,
intense bursts emitted near line rate -- is what makes NIC multiplexing pay
off, so the generator reproduces it mechanistically:

* a Poisson background of standalone packets (the steady hum),
* Poisson-arriving *bursts* whose sizes are lognormal with a heavy tail,
  emitted at a random large fraction of line rate (a flow slamming the NIC).

Per-host parameters (:class:`TraceParams`) are calibrated so the generated
P99/P99.99 utilizations land in the ranges of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional

from ..analysis.stats import utilization_percentile, utilization_series

if TYPE_CHECKING:
    import numpy as np   # annotations only; the functions import it

__all__ = ["TraceParams", "PacketTrace", "generate_trace", "RACK_A_PARAMS",
           "RACK_B_PARAMS"]


@dataclass(frozen=True)
class TraceParams:
    """Knobs for one host's synthetic capture."""

    duration_s: float = 1.0
    nic_gbps: float = 100.0
    packet_bytes: int = 1500
    background_util: float = 0.004      # mean utilization of the steady hum
    burst_rate_per_s: float = 40.0      # burst arrivals
    burst_bytes_median: float = 40e3    # lognormal median burst size
    burst_bytes_sigma: float = 1.6      # lognormal sigma (heavy tail)
    emit_fraction_lo: float = 0.35      # burst emission rate / line rate
    emit_fraction_hi: float = 0.95

    @property
    def line_bytes_per_sec(self) -> float:
        return self.nic_gbps * 1e9 / 8.0


@dataclass
class PacketTrace:
    """One host's packet arrival trace: sorted times and sizes."""

    times: np.ndarray
    sizes: np.ndarray
    params: TraceParams

    @property
    def duration_s(self) -> float:
        return self.params.duration_s

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def mean_utilization(self) -> float:
        return self.total_bytes / (
            self.params.line_bytes_per_sec * self.duration_s
        )

    def utilization_percentile(self, q: float, bin_s: float = 10e-6) -> float:
        return utilization_percentile(self.times, self.sizes, self.duration_s,
                                      self.params.line_bytes_per_sec, q, bin_s)

    def utilization_series(self, bin_s: float = 10e-6) -> np.ndarray:
        return utilization_series(self.times, self.sizes, self.duration_s,
                                  self.params.line_bytes_per_sec, bin_s)

    @staticmethod
    def aggregate(traces: List["PacketTrace"]) -> "PacketTrace":
        """Merge several hosts' traces (for aggregated utilization)."""
        import numpy as np
        times = np.concatenate([t.times for t in traces])
        sizes = np.concatenate([t.sizes for t in traces])
        order = np.argsort(times, kind="stable")
        return PacketTrace(times[order], sizes[order], traces[0].params)


def generate_trace(params: TraceParams, rng: np.random.Generator) -> PacketTrace:
    """Generate one host's capture."""
    import numpy as np
    line = params.line_bytes_per_sec
    pkt = params.packet_bytes

    # Background: Poisson packets at background_util of line rate.
    bg_pps = params.background_util * line / pkt
    n_bg = rng.poisson(bg_pps * params.duration_s)
    bg_times = rng.uniform(0.0, params.duration_s, n_bg)

    # Bursts: Poisson arrivals; each emits back-to-back packets at a random
    # fraction of line rate.
    n_bursts = rng.poisson(params.burst_rate_per_s * params.duration_s)
    burst_starts = rng.uniform(0.0, params.duration_s, n_bursts)
    burst_bytes = rng.lognormal(np.log(params.burst_bytes_median),
                                params.burst_bytes_sigma, n_bursts)
    emit_fractions = rng.uniform(params.emit_fraction_lo,
                                 params.emit_fraction_hi, n_bursts)

    chunks_t = [bg_times]
    chunks_s = [np.full(n_bg, pkt, dtype=np.int64)]
    for start, nbytes, frac in zip(burst_starts, burst_bytes, emit_fractions):
        npkts = max(1, int(nbytes / pkt))
        spacing = pkt / (line * frac)
        t = start + np.arange(npkts) * spacing
        t = t[t < params.duration_s]
        chunks_t.append(t)
        chunks_s.append(np.full(len(t), pkt, dtype=np.int64))

    times = np.concatenate(chunks_t)
    sizes = np.concatenate(chunks_s)
    order = np.argsort(times, kind="stable")
    return PacketTrace(times[order], sizes[order], params)


# Per-host calibrations matching Table 2's spread.  Rack A: 100 Gbit NICs,
# one near-idle host; rack B: 50 Gbit NICs, hotter.
RACK_A_PARAMS: List[TraceParams] = [
    TraceParams(nic_gbps=100, background_util=0.004, burst_rate_per_s=60,
                burst_bytes_median=60e3, burst_bytes_sigma=1.5,
                emit_fraction_lo=0.15, emit_fraction_hi=0.42),
    TraceParams(nic_gbps=100, background_util=0.003, burst_rate_per_s=45,
                burst_bytes_median=45e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.12, emit_fraction_hi=0.33),
    TraceParams(nic_gbps=100, background_util=0.0002, burst_rate_per_s=2,
                burst_bytes_median=8e3, burst_bytes_sigma=1.0,
                emit_fraction_lo=0.02, emit_fraction_hi=0.05),
    TraceParams(nic_gbps=100, background_util=0.002, burst_rate_per_s=35,
                burst_bytes_median=35e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.1, emit_fraction_hi=0.26),
]

RACK_B_PARAMS: List[TraceParams] = [
    TraceParams(nic_gbps=50, background_util=0.006, burst_rate_per_s=60,
                burst_bytes_median=45e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.15, emit_fraction_hi=0.43),
    TraceParams(nic_gbps=50, background_util=0.010, burst_rate_per_s=90,
                burst_bytes_median=55e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.3, emit_fraction_hi=0.8),
    TraceParams(nic_gbps=50, background_util=0.008, burst_rate_per_s=70,
                burst_bytes_median=45e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.2, emit_fraction_hi=0.57),
    TraceParams(nic_gbps=50, background_util=0.012, burst_rate_per_s=90,
                burst_bytes_median=55e3, burst_bytes_sigma=1.4,
                emit_fraction_lo=0.35, emit_fraction_hi=0.85),
]
