"""Allocator-to-frontend notification path, fault-injectable per host.

Failover/resync notifications used to be bare ``sim.schedule`` calls; the
bus keeps the same latency model but gives chaos schedules a handle: extra
per-host delay (``notify.delay``) and one-shot drops (``notify.drop``)
model the delayed or lost notifications that epoch fencing exists to make
harmless.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["NotificationBus"]


class NotificationBus:
    """Delivers control-plane notifications to hosts, with injectable faults."""

    def __init__(self, sim):
        self.sim = sim
        self._extra: Dict[str, float] = {}
        self._drop: Dict[str, int] = {}
        self.delivered = 0
        self.delayed = 0
        self.dropped = 0

    def send(self, host_name: str, delay_s: float, fn, *args) -> None:
        drops = self._drop.get(host_name, 0)
        if drops > 0:
            self._drop[host_name] = drops - 1
            self.dropped += 1
            return
        extra = self._extra.get(host_name, 0.0)
        if extra > 0.0:
            self.delayed += 1
        self.delivered += 1
        self.sim.schedule(delay_s + extra, fn, *args)

    # -- fault hooks (chaos injector) ---------------------------------------------

    def delay_extra(self, host_name: str, extra_s: float) -> None:
        self._extra[host_name] = extra_s

    def clear_delay(self, host_name: str) -> None:
        self._extra.pop(host_name, None)

    def drop_next(self, host_name: str, count: int = 1) -> None:
        self._drop[host_name] = self._drop.get(host_name, 0) + count
