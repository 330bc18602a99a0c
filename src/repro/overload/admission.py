"""Bounded admission queue with CoDel-style drop-from-front.

The frontends put every accepted request through one of these before it is
launched at the device channel.  Two shedding mechanisms compose:

* **depth cap** -- :meth:`AdmissionQueue.push` refuses outright once
  ``depth`` requests are queued, bounding memory and worst-case sojourn;
* **sojourn control** -- :meth:`AdmissionQueue.pop` tracks how long the
  *head* of the queue has waited.  Once head sojourn has stayed above
  ``target_s`` continuously for ``interval_s`` (a standing queue, not a
  transient burst), overdue heads are dropped from the *front* -- the
  oldest requests are the ones whose clients have already given up, so
  dropping them first preserves goodput, exactly CoDel's argument.

The queue is purely deterministic (timestamps in, decisions out); shedding
sequences replay byte-identically under a fixed seed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Tuple

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """FIFO with a hard depth cap and sojourn-based front-drop."""

    __slots__ = ("depth", "target_s", "interval_s", "_q", "_first_above",
                 "admitted", "shed_full", "shed_sojourn")

    def __init__(self, depth: int = 256, target_s: float = 0.005,
                 interval_s: float = 0.025):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("target_s and interval_s must be positive")
        self.depth = depth
        self.target_s = target_s
        self.interval_s = interval_s
        self._q: deque = deque()        # (enqueue_time, item)
        self._first_above: Optional[float] = None
        self.admitted = 0
        self.shed_full = 0
        self.shed_sojourn = 0

    def __len__(self) -> int:
        return len(self._q)

    def push(self, now: float, item: Any) -> bool:
        """Admit ``item``; False (shed) once the depth cap is hit."""
        if len(self._q) >= self.depth:
            self.shed_full += 1
            return False
        self._q.append((now, item))
        self.admitted += 1
        return True

    def pop(self, now: float) -> Tuple[Optional[Any], List[Any]]:
        """Dequeue the next request, front-dropping overdue heads first.

        Returns ``(item, shed)`` where ``item`` is the request to launch
        (None if the queue drained) and ``shed`` lists the requests CoDel
        dropped from the front on the way; the caller must complete those
        with a shed status so nothing goes stuck.
        """
        shed: List[Any] = []
        while self._q and self._overdue(now):
            shed.append(self._q.popleft()[1])
            self.shed_sojourn += 1
        if not self._q:
            # Canonical CoDel: leaving the drop state when the queue drains
            # -- a later burst must re-earn a full interval_s standing-queue
            # observation before any front drop.
            self._first_above = None
            return None, shed
        enqueued, item = self._q.popleft()
        if not self._q or now - enqueued < self.target_s:
            self._first_above = None    # drained, or healthy again
        return item, shed

    def _overdue(self, now: float) -> bool:
        """Has the head breached ``target_s`` for a full ``interval_s``?"""
        if now - self._q[0][0] < self.target_s:
            self._first_above = None
            return False
        if self._first_above is None:
            self._first_above = now
        return now - self._first_above >= self.interval_s
