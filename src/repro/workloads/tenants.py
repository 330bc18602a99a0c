"""Multi-tenant serving workloads (``python -m repro serve``).

A tenant is an open-loop load source with a scheduling contract: a WFQ
weight, an optional guaranteed rate, and a latency SLO.  Three canonical
profiles model the serving mix the paper's pooled devices have to isolate:

* ``mc`` -- a latency-sensitive memcached-like tenant: steady small reads,
  a tight SLO, and a guaranteed rate covering its whole demand;
* ``web`` -- a diurnal web tier: rate swings sinusoidally over the run
  (the day/night curve compressed to simulated seconds);
* ``bg`` -- bursty background block I/O (scans, compactions): heavy-tailed
  bursts, a loose SLO, weight-only (no guarantee), marked background so
  brownout sheds it first.

:class:`TenantClient` extends the PR-9 open-loop generator with the
tenant tag (riding every request into the storage frontend's per-tenant
WFQ), the diurnal rate modulation, and per-run SLO-violation counting that
:func:`~repro.obs.bindings.bind_tenant_client` exports to fleet health as
the ``tenant_requests`` family.

Determinism: the diurnal modulation is a pure function of simulated time
and the profile, and everything else inherits the open-loop client's
single-RNG-substream discipline, so a tenant's offered stream replays
byte-identically under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..overload import TenantSpec
from ..sim.core import Simulator, USEC
from ..sim.rng import Stream
from .openloop import OpenLoopBlockClient

__all__ = ["TenantProfile", "TenantClient", "SERVE_PROFILES"]


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's workload shape and scheduling contract."""

    name: str
    weight: float = 1.0
    rate_iops: float = 1_000.0
    guarantee_iops: float = 0.0      # > 0 reserves a token-bucket lane
    guarantee_burst: float = 16.0
    read_fraction: float = 0.9
    io_blocks: int = 1
    background_fraction: float = 0.0
    slo_us: float = 2_000.0          # per-request latency objective
    diurnal_amplitude: float = 0.0   # fraction of rate swung sinusoidally
    diurnal_period_s: float = 1.0
    burst_rate_per_s: float = 0.0
    burst_size_median: float = 32.0
    burst_size_sigma: float = 1.2

    def validate(self) -> "TenantProfile":
        if not self.name:
            raise ValueError("tenant profile needs a name")
        if self.rate_iops <= 0:
            raise ValueError(f"{self.name}: rate_iops must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"{self.name}: diurnal_amplitude must be in [0, 1)")
        if self.diurnal_amplitude > 0 and self.diurnal_period_s <= 0:
            raise ValueError(
                f"{self.name}: diurnal_period_s must be positive")
        if self.slo_us <= 0:
            raise ValueError(f"{self.name}: slo_us must be positive")
        self.spec().validate()
        return self

    def spec(self) -> TenantSpec:
        """The frontend-side scheduling contract for this profile."""
        return TenantSpec(weight=self.weight,
                          guarantee_rate=self.guarantee_iops,
                          guarantee_burst=self.guarantee_burst)


class TenantClient(OpenLoopBlockClient):
    """Open-loop block source owned by one tenant.

    Adds to the base client: the tenant tag on every request, sinusoidal
    diurnal rate modulation (a pure function of sim time, so it perturbs
    no RNG draws), and SLO-violation counting on ok completions.
    """

    def __init__(self, sim: Simulator, device, profile: TenantProfile,
                 rng: Optional[Stream] = None,
                 bin_s: float = 0.01, address_blocks: int = 4096):
        profile.validate()
        super().__init__(
            sim, device,
            rate_iops=profile.rate_iops,
            read_fraction=profile.read_fraction,
            io_blocks=profile.io_blocks,
            address_blocks=address_blocks,
            rng=rng,
            bin_s=bin_s,
            burst_rate_per_s=profile.burst_rate_per_s,
            burst_size_median=profile.burst_size_median,
            burst_size_sigma=profile.burst_size_sigma,
            background_fraction=profile.background_fraction,
            name=f"tenant-{profile.name}",
        )
        self.profile = profile
        self.tenant = profile.name
        self.slo_violations = 0

    @property
    def effective_rate(self) -> float:
        rate = self.rate_iops * self.rate_mult
        amp = self.profile.diurnal_amplitude
        if amp > 0:
            rate *= 1.0 + amp * math.sin(
                2.0 * math.pi * self.sim.now / self.profile.diurnal_period_s)
        return rate

    def start(self, duration: float) -> None:
        self.slo_violations = 0
        super().start(duration)

    def _complete(self, status: int, started: float) -> None:
        if status == 0:
            latency_us = (self.sim.now - started) / USEC
            if latency_us > self.profile.slo_us:
                self.slo_violations += 1
        super()._complete(status, started)

    def summary(self) -> dict:
        out = self.stats.summary() if self.stats is not None else {}
        out["tenant"] = self.tenant
        out["weight"] = self.profile.weight
        out["slo_us"] = self.profile.slo_us
        out["slo_violations"] = self.slo_violations
        return out


def SERVE_PROFILES(capacity_iops: float) -> Dict[str, TenantProfile]:
    """The 3-class serving mix, scaled to the device's capacity.

    ``mc`` (latency-sensitive, guaranteed), ``web`` (diurnal), ``bg``
    (bursty background).  Offered load sums to ~60% of capacity before the
    noisy neighbour surges, so the mix saturates only during the surge.
    """
    return {
        "mc": TenantProfile(
            name="mc", weight=4.0,
            rate_iops=0.20 * capacity_iops,
            guarantee_iops=0.25 * capacity_iops,
            guarantee_burst=32.0,
            read_fraction=0.98, slo_us=1_500.0,
        ).validate(),
        "web": TenantProfile(
            name="web", weight=2.0,
            rate_iops=0.20 * capacity_iops,
            read_fraction=0.9, slo_us=5_000.0,
            diurnal_amplitude=0.5, diurnal_period_s=0.5,
        ).validate(),
        "bg": TenantProfile(
            name="bg", weight=1.0,
            rate_iops=0.20 * capacity_iops,
            read_fraction=0.3, slo_us=50_000.0,
            background_fraction=0.5,
            burst_rate_per_s=4.0, burst_size_median=24.0,
            burst_size_sigma=1.0,
        ).validate(),
    }
