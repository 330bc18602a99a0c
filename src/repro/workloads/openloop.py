"""Open-loop, heavy-tailed block I/O client (overload generator).

The closed-loop workloads (echo/memcached/blockio) self-limit: they cap
in-flight requests, so offered load can never exceed capacity and overload
behaviour is unobservable.  This client extends the fig3 ON/OFF idea into a
rate-driven generator that queues independently of completions:

* a Poisson *base* arrival process at ``rate_iops`` (mutable mid-run, so an
  experiment or the ``overload.surge`` fault can sweep offered load through
  and beyond capacity);
* Poisson-arriving *bursts* whose sizes are lognormal with a heavy tail,
  issued back-to-back (the fig3 shape: a low hum plus rare intense bursts).

Nothing is dropped at the client: every arrival is submitted, which is what
lets the storage frontend's admission control (or lack of it) determine the
outcome.  Offered load, goodput, sheds, errors and mean latency are binned
over time so experiments can render the goodput/latency-vs-time curve and
measure recovery after a surge.

Determinism: one dedicated RNG substream drives every draw (arrivals, burst
sizes, op mix); completions never feed back into the arrival process, so
the offered event stream is a pure function of (seed, rate profile).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.storage.frontend import STATUS_SHED
from ..sim.core import Simulator, USEC
from ..sim.rng import Stream

__all__ = ["OpenLoopBlockClient", "OpenLoopStats"]


class OpenLoopStats:
    """Totals plus per-bin timelines of one open-loop run."""

    def __init__(self, bin_s: float, duration_s: float):
        self.bin_s = bin_s
        bins = max(1, int(math.ceil(duration_s / bin_s)))
        self.offered = [0] * bins          # submissions, by submit time
        self.goodput = [0] * bins          # ok completions, by completion time
        self.shed_bins = [0] * bins        # sheds, by completion time
        self.error_bins = [0] * bins       # errors, by completion time
        self._latency_sum = [0.0] * bins   # of ok completions
        self.submitted = 0
        self.completed_ok = 0
        self.shed = 0
        self.errors = 0
        self.latencies_us: List[float] = []
        # Completions landing after the last bin's right edge (requests in
        # flight when the run window closed).  They still count in the
        # totals above, but folding them into the final bin would inflate
        # its goodput/latency -- and the recovery headline measured there.
        self.late_goodput = 0
        self.late_shed = 0
        self.late_errors = 0

    def _bin(self, t: float) -> Optional[int]:
        """Bin index for time ``t``; None once ``t`` is past the last bin."""
        index = int(t / self.bin_s)
        if index >= len(self.offered):
            return None
        return max(0, index)

    def on_submit(self, t: float) -> None:
        self.submitted += 1
        index = self._bin(t)
        if index is not None:
            self.offered[index] += 1

    def on_complete(self, t: float, status: int, latency_us: float) -> None:
        index = self._bin(t)
        if status == 0:
            self.completed_ok += 1
            self.latencies_us.append(latency_us)
            if index is None:
                self.late_goodput += 1
            else:
                self.goodput[index] += 1
                self._latency_sum[index] += latency_us
        elif status == STATUS_SHED:
            self.shed += 1
            if index is None:
                self.late_shed += 1
            else:
                self.shed_bins[index] += 1
        else:
            self.errors += 1
            if index is None:
                self.late_errors += 1
            else:
                self.error_bins[index] += 1

    def mean_latency_us(self, index: int) -> float:
        count = self.goodput[index]
        return self._latency_sum[index] / count if count else 0.0

    def window_goodput_iops(self, t0: float, t1: float) -> float:
        """Mean ok-completions/s over the window [t0, t1).

        The window is clamped to the binned range and the divisor is the
        *clamped* span, so a window reaching past the last bin's edge no
        longer averages over bins it never summed.
        """
        nbins = len(self.goodput)
        lo = min(max(0, int(t0 / self.bin_s)), nbins - 1)
        hi = max(lo + 1, min(nbins, int(math.ceil(t1 / self.bin_s))))
        total = sum(self.goodput[lo:hi])
        return total / ((hi - lo) * self.bin_s)

    def summary(self) -> dict:
        lat = self.latencies_us
        return {
            "submitted": self.submitted,
            "completed_ok": self.completed_ok,
            "shed": self.shed,
            "errors": self.errors,
            "late_goodput": self.late_goodput,
            "late_shed": self.late_shed,
            "late_errors": self.late_errors,
            "p50_us": float(np.percentile(lat, 50)) if lat else 0.0,
            "p99_us": float(np.percentile(lat, 99)) if lat else 0.0,
            "bin_s": self.bin_s,
            "offered": list(self.offered),
            "goodput": list(self.goodput),
            "shed_bins": list(self.shed_bins),
            "error_bins": list(self.error_bins),
            "mean_latency_us": [round(self.mean_latency_us(i), 3)
                                for i in range(len(self.offered))],
        }


class OpenLoopBlockClient:
    """Rate-driven block I/O source; offered load is seed-deterministic."""

    #: tenant tag for per-tenant WFQ (None keeps the legacy shared lane);
    #: set by the TenantClient subclass, never by plain overload runs.
    tenant: Optional[str] = None

    def __init__(
        self,
        sim: Simulator,
        device,
        rate_iops: float = 10_000.0,
        read_fraction: float = 0.9,
        io_blocks: int = 1,
        address_blocks: int = 4096,
        rng: Optional[Stream] = None,
        bin_s: float = 0.01,
        burst_rate_per_s: float = 0.0,
        burst_size_median: float = 32.0,
        burst_size_sigma: float = 1.2,
        burst_spacing_s: float = 2e-6,
        background_fraction: float = 0.0,
        name: str = "openloop",
    ):
        self.sim = sim
        self.device = device
        self.rate_iops = rate_iops
        self.rate_mult = 1.0            # overload.surge fault hook
        self.read_fraction = read_fraction
        self.io_blocks = io_blocks
        self.address_blocks = address_blocks
        self.rng = rng if rng is not None else Stream(0)
        self.bin_s = bin_s
        self.burst_rate_per_s = burst_rate_per_s
        self.burst_size_median = burst_size_median
        self.burst_size_sigma = burst_size_sigma
        self.burst_spacing_s = burst_spacing_s
        self.background_fraction = background_fraction
        self.name = name
        self.stats: Optional[OpenLoopStats] = None
        self._stopped = True
        self._inflight = 0
        self._write_payload = bytes(io_blocks * device.block_size)

    # -- rate control (experiments and the overload.surge fault) -----------

    def set_rate(self, rate_iops: float) -> None:
        self.rate_iops = rate_iops

    def set_rate_multiplier(self, factor: float) -> None:
        """Multiplicative surge hook (the ``overload.surge`` fault)."""
        self.rate_mult = factor

    @property
    def effective_rate(self) -> float:
        return self.rate_iops * self.rate_mult

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- lifecycle ---------------------------------------------------------

    def start(self, duration: float) -> None:
        # Reset every per-run mutable: a client restarted after an
        # ``overload.surge`` fault must not keep the surged multiplier, and
        # completions from a previous run must not count against this one.
        self.stats = OpenLoopStats(self.bin_s, duration)
        self.rate_mult = 1.0
        self._inflight = 0
        self._stopped = False
        self.sim.schedule(0.0, self._arrival_loop)
        if self.burst_rate_per_s > 0:
            self.sim.schedule(
                float(self.rng.exponential(1.0 / self.burst_rate_per_s)),
                self._burst_loop)
        self.sim.schedule(duration, self._stop)

    def _stop(self) -> None:
        self._stopped = True

    # -- arrival processes -------------------------------------------------

    def _arrival_loop(self) -> None:
        if self._stopped:
            return
        rate = self.effective_rate
        if rate > 0:
            self.sim.schedule(float(self.rng.exponential(1.0 / rate)),
                              self._arrival_loop)
            self._issue_one()
        else:
            # Paused: poll for the rate coming back without drawing arrivals.
            self.sim.schedule(self.bin_s, self._arrival_loop)

    def _burst_loop(self) -> None:
        if self._stopped:
            return
        self.sim.schedule(
            float(self.rng.exponential(1.0 / self.burst_rate_per_s)),
            self._burst_loop)
        size = max(1, int(self.rng.lognormal(
            math.log(self.burst_size_median), self.burst_size_sigma)))
        for i in range(size):
            self.sim.schedule(i * self.burst_spacing_s, self._issue_one)

    def _issue_one(self) -> None:
        if self._stopped:
            return
        lba = int(self.rng.integers(
            0, self.address_blocks - self.io_blocks + 1))
        background = (self.background_fraction > 0
                      and float(self.rng.random()) < self.background_fraction)
        start = self.sim.now
        self.stats.on_submit(start)
        self._inflight += 1
        if float(self.rng.random()) < self.read_fraction:
            self.device.read(
                lba, self.io_blocks,
                lambda status, data, s=start: self._complete(status, s),
                background=background, tenant=self.tenant)
        else:
            self.device.write(
                lba, self._write_payload,
                lambda status, s=start: self._complete(status, s),
                background=background, tenant=self.tenant)

    def _complete(self, status: int, started: float) -> None:
        self._inflight -= 1
        latency_us = (self.sim.now - started) / USEC
        self.stats.on_complete(self.sim.now, status, latency_us)
