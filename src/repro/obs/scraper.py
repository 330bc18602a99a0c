"""Periodic scraping of a :class:`~repro.obs.metrics.MetricsRegistry`.

The scraper is a simulation-time process: every ``period_s`` of *virtual*
time it reads the whole registry into one value vector and keeps it in a
bounded time-series buffer, from which experiments and ``python -m repro
report`` read per-metric series (:meth:`TelemetryScraper.series`) or
per-interval rates (:meth:`TelemetryScraper.rates`), exactly the way the
pod-wide allocator consumes the backends' 100 ms telemetry records (§3.5).

The buffer is a ring: at ``max_snapshots`` the oldest snapshot is evicted
so sampling never stops, and ``dropped`` counts how many fell off the back.
A retained scrape is one packed ``array('d')`` -- 8 bytes per series --
against the registry's shared series table, not a dict with label tuples of
its own.  Streaming consumers that must see *every* sample regardless of
buffer depth register via :meth:`TelemetryScraper.subscribe` (that is how
:class:`~repro.obs.fleet.FleetHealth` gets each new vector; it keeps only
the previous one to difference against).

The scrape period relies on :class:`~repro.sim.core.PeriodicTask` firing
on its base timeline -- "every 100 ms" really means a 100 ms period, which
is what makes the derived rates trustworthy.  The scrape task never goes
quiet (DESIGN §3e, schedule version 4): a scrape is modelled traffic, due
whether or not anything changed.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigError
from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = ["TelemetryScraper"]


class TelemetryScraper:
    """Samples a registry at a configurable virtual-time period."""

    def __init__(
        self,
        sim,
        registry: MetricsRegistry,
        period_s: float = 0.1,
        max_snapshots: int = 100_000,
    ):
        self.sim = sim
        self.registry = registry
        self.period_s = period_s
        self.snapshots: deque = deque(maxlen=max_snapshots)
        self.samples_taken = 0
        self.dropped = 0
        self._task = None
        self._subscribers: List[Callable[[MetricsSnapshot], None]] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self, period_s: Optional[float] = None) -> "TelemetryScraper":
        """Begin sampling every ``period_s`` (idempotent for one period)."""
        if self._task is not None:
            if period_s is not None and period_s != self.period_s:
                raise ConfigError(
                    f"scraper already samples every {self.period_s} s; "
                    f"cannot restart it at {period_s} s (stop() it first)")
            return self
        if period_s is not None:
            self.period_s = period_s
        self._task = self.sim.every(self.period_s, self._sample)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def subscribe(self, fn: Callable[[MetricsSnapshot], None]) -> None:
        """Stream every new snapshot to ``fn`` as it is taken.

        Subscribers see all samples in order even after the ring evicts
        them, so they can maintain unbounded-horizon state (EWMAs,
        sketches) in bounded memory.
        """
        self._subscribers.append(fn)

    def sample_now(self) -> MetricsSnapshot:
        """Take one out-of-band sample immediately (also buffered)."""
        snapshot = self.registry.snapshot(time=self.sim.now)
        if (self.snapshots.maxlen is not None
                and len(self.snapshots) == self.snapshots.maxlen):
            self.dropped += 1          # ring full: the oldest falls off
        self.snapshots.append(MetricsSnapshot(
            snapshot.table, array("d", snapshot.vector), snapshot.time))
        for fn in self._subscribers:
            fn(snapshot)
        return snapshot

    def _sample(self) -> None:
        self.samples_taken += 1
        self.sample_now()

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.snapshots)

    def series(self, name: str, **labels) -> Tuple[List[float], List[float]]:
        """The sampled values of one metric over time: ``(times, values)``.

        With no labels given, samples of ``name`` are summed across all
        label sets (the pod-wide total).  Covers whatever window the ring
        currently holds.
        """
        times: List[float] = []
        values: List[float] = []
        for snapshot in self.snapshots:
            times.append(snapshot.time)
            if labels:
                values.append(snapshot.get(name, **labels))
            else:
                values.append(snapshot.total(name))
        return times, values

    def rates(self, name: str, **labels) -> Tuple[List[float], List[float]]:
        """Per-second deltas between consecutive samples of a counter."""
        times, values = self.series(name, **labels)
        out_t: List[float] = []
        out_r: List[float] = []
        for i in range(1, len(times)):
            dt = times[i] - times[i - 1]
            if dt <= 0:
                continue
            out_t.append(times[i])
            out_r.append((values[i] - values[i - 1]) / dt)
        return out_t, out_r
