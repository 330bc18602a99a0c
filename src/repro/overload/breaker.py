"""Per-device circuit breaker: closed -> open -> half-open.

A frontend keeps one breaker per backend device.  Consecutive failures trip
the breaker open; while open, requests are rejected locally (shed) instead
of being launched at a device that is already failing, which is what turns
a sick device into a retry storm.  After an open dwell (plus seeded jitter,
so a fleet of breakers doesn't probe in lockstep) one half-open *probe*
request is let through: success re-closes the breaker, failure re-opens it.

The breaker takes explicit ``now`` timestamps rather than a simulator
handle, so the state machine is trivially property-testable; probe jitter
is drawn from a dedicated RNG substream at trip time, keeping every trip
and probe instant byte-replayable under a fixed seed.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker guarding one backend device."""

    __slots__ = ("name", "failure_threshold", "open_s", "probe_jitter_s",
                 "rng", "state", "failures", "open_until", "trips", "probes",
                 "rejections", "reclosures")

    def __init__(self, failure_threshold: int = 8, open_s: float = 0.05,
                 probe_jitter_s: float = 0.0, rng=None, name: str = ""):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if open_s <= 0 or probe_jitter_s < 0:
            raise ValueError("open_s must be positive, jitter >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.open_s = open_s
        self.probe_jitter_s = probe_jitter_s
        self.rng = rng
        self.state = CLOSED
        self.failures = 0           # consecutive failures while closed
        self.open_until: float = 0.0
        self.trips = 0
        self.probes = 0
        self.rejections = 0
        self.reclosures = 0

    def allow(self, now: float) -> bool:
        """May a request be launched at the device right now?

        While half-open exactly one probe is outstanding; everything else
        is rejected until the probe's verdict comes back.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN and now >= self.open_until:
            self.state = HALF_OPEN
            self.probes += 1
            return True             # this request is the probe
        self.rejections += 1
        return False

    def record_success(self, now: float) -> None:
        self.failures = 0
        if self.state != CLOSED:
            self.state = CLOSED
            self.reclosures += 1

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._trip(now)         # failed probe: back to open
            return
        if self.state == OPEN:
            return                  # stragglers from before the trip
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.failures = 0
        self.trips += 1
        jitter = 0.0
        if self.rng is not None and self.probe_jitter_s > 0:
            jitter = self.rng.uniform(0.0, self.probe_jitter_s)
        self.open_until = now + self.open_s + jitter
