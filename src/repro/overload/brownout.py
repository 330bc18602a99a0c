"""Brownout controller: graceful degradation driven by fleet telemetry.

Reads the fleet pipeline's queue-saturation levels
(:meth:`~repro.obs.fleet.FleetHealth.queue_saturation`) on a fixed period and maps the worst device queue
onto a discrete *brownout level*:

* level 0 -- healthy, serve everything;
* level 1 -- a device queue has saturated past ``high``: the drivers of
  the registered admission stages shed background work first (storage
  drops flush/read-ahead batch work, the netengine drops low-priority
  frames).

Hysteresis (``low`` < ``high``) prevents flapping; the controller only
writes ``stage.brownout_level`` on transitions, so a healthy pod pays one
gauge read per period and nothing else.  Everything is driven by
sim time -- brownout enter/exit instants replay byte-identically.
"""

from __future__ import annotations

from typing import List

__all__ = ["BrownoutController"]


class BrownoutController:
    """Periodic queue-saturation watcher toggling frontend brownout."""

    def __init__(self, sim, fleet, high: float = 0.85, low: float = 0.60,
                 period_s: float = 0.005):
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.sim = sim
        self.fleet = fleet              # the FleetHealth pipeline
        self.high = high
        self.low = low
        self.period_s = period_s
        self.level = 0
        self.entries = 0                # level 0 -> 1 transitions
        self.exits = 0                  # level 1 -> 0 transitions
        self.transitions: List[tuple] = []   # (t, level, worst_saturation)
        self._targets: list = []
        self._task = None

    def register(self, stage) -> None:
        """Register an admission stage; a late joiner adopts the live level."""
        stage.brownout_level = self.level
        self._targets.append(stage)

    def start(self) -> None:
        if self._task is None:
            self._task = self.sim.every(self.period_s, self._tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def worst_saturation(self) -> float:
        """Worst congestion signal: device queues OR admission queues.

        Device-queue gauges come from the fleet pipeline; with admission
        control armed the device queue is deliberately kept short, so the
        registered stages' own admission saturation is folded in -- that
        is where excess load piles up once launches are windowed.
        """
        table = self.fleet.queue_saturation()
        worst = max(table.values()) if table else 0.0
        for stage in self._targets:
            worst = max(worst, stage.admission_saturation)
        return worst

    def _tick(self) -> None:
        worst = self.worst_saturation()
        if self.level == 0 and worst >= self.high:
            self._set_level(1, worst)
        elif self.level == 1 and worst < self.low:
            self._set_level(0, worst)

    def _set_level(self, level: int, worst: float) -> None:
        self.level = level
        if level:
            self.entries += 1
        else:
            self.exits += 1
        self.transitions.append((self.sim.now, level, round(worst, 6)))
        for stage in self._targets:
            stage.brownout_level = level

    def log_json(self) -> List[list]:
        """Deterministic transition log (replay-identity contract)."""
        return [[round(t, 9), level, worst]
                for t, level, worst in self.transitions]

    def as_dict(self) -> dict:
        return {"level": self.level, "entries": self.entries,
                "exits": self.exits, "transitions": self.log_json()}
