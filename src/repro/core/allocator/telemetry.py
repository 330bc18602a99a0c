"""Telemetry ingestion for the pod-wide allocator (§3.5).

Every backend driver reports a record every 100 ms (load, link status, AER
counters).  The store keeps the latest record per device plus a liveness
clock per host: a host that misses ``host_failure_missed_telemetry``
consecutive reports is declared dead and its devices failed over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["TelemetryStore"]


class TelemetryStore:
    """Latest-record store with host liveness inference."""

    def __init__(self, interval_s: float, missed_threshold: int = 3):
        self.interval_s = interval_s
        self.missed_threshold = missed_threshold
        self._latest: Dict[str, dict] = {}       # device name -> record
        self._host_last_seen: Dict[str, float] = {}
        self.records_ingested = 0

    def ingest(self, record: dict) -> None:
        self._latest[record["device"]] = record
        self._host_last_seen[record["host"]] = record["time"]
        self.records_ingested += 1

    def dead_hosts(self, now: float) -> List[str]:
        return [
            host for host, last in self._host_last_seen.items()
            if (now - last) > self.missed_threshold * self.interval_s
        ]

    def mark_seen(self, host: str, now: float) -> None:
        self._host_last_seen[host] = now
