"""Sim-time tracer: typed span/instant events with Chrome-trace export.

The tracer records what the metrics registry cannot: *when* things happened
in virtual time and how long they took.  Components emit

* **instants** -- point events (a channel doorbell, an allocator decision,
  a Raft term change);
* **spans** -- durations, either explicit (:meth:`Tracer.span`, when the
  caller already knows start and duration, e.g. a DMA transfer) or paired
  (:meth:`Tracer.begin` / :meth:`Tracer.end`, e.g. the failover phases that
  stretch across several scheduled callbacks).

Exports:

* :meth:`Tracer.chrome_trace` / :meth:`Tracer.export_chrome` -- the Chrome
  trace-event JSON array format (loadable in ``chrome://tracing`` and
  Perfetto); timestamps are virtual microseconds, tracks map to thread
  names;
* :meth:`Tracer.timeline` -- a plain-text timeline for terminals and logs.

A disabled tracer (the default in :class:`~repro.core.pod.CXLPod`) turns
every emit into a cheap boolean check, so instrumented hot paths cost
nothing unless a run opts in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER", "TracerBinding"]


@dataclass
class TraceEvent:
    """One recorded event.  Times are virtual seconds."""

    name: str
    category: str
    ts: float
    kind: str = "instant"            # "instant" | "span"
    dur: float = 0.0                 # spans only
    track: str = "sim"
    args: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Records typed events against a simulator clock."""

    def __init__(self, sim, enabled: bool = True, max_events: int = 2_000_000,
                 categories: Optional[set] = None):
        self.sim = sim
        self.enabled = enabled
        self.max_events = max_events
        #: when non-None, only events in these categories are recorded --
        #: long runs can keep e.g. just the failover phases without paying
        #: for per-message channel events.
        self.categories = set(categories) if categories is not None else None
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._open: Dict[Tuple[str, Any], TraceEvent] = {}

    # -- emitting ----------------------------------------------------------

    def _want(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def _record(self, event: TraceEvent) -> Optional[TraceEvent]:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return None
        self.events.append(event)
        return event

    def instant(self, name: str, category: str = "event", track: str = "sim",
                **args) -> Optional[TraceEvent]:
        """Record a point event at the current sim time."""
        if not self.enabled or not self._want(category):
            return None
        return self._record(TraceEvent(name, category, self.sim.now,
                                       kind="instant", track=track, args=args))

    def span(self, name: str, start: float, duration: float,
             category: str = "span", track: str = "sim",
             **args) -> Optional[TraceEvent]:
        """Record a complete span with a known start and duration."""
        if not self.enabled or not self._want(category):
            return None
        return self._record(TraceEvent(name, category, start, kind="span",
                                       dur=max(duration, 0.0), track=track,
                                       args=args))

    def begin(self, name: str, key: Any = None, category: str = "span",
              track: str = "sim", **args) -> None:
        """Open a span; close it later with :meth:`end` using the same key."""
        if not self.enabled or not self._want(category):
            return
        self._open[(name, key)] = TraceEvent(name, category, self.sim.now,
                                             kind="span", track=track,
                                             args=args)

    def end(self, name: str, key: Any = None, **args) -> Optional[TraceEvent]:
        """Close a span opened with :meth:`begin`.  Unmatched ends are ignored."""
        if not self.enabled:
            return None
        event = self._open.pop((name, key), None)
        if event is None:
            return None
        event.dur = max(self.sim.now - event.ts, 0.0)
        event.args.update(args)
        return self._record(event)

    # -- querying -----------------------------------------------------------

    def spans(self, category: Optional[str] = None,
              name: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self.events
                if e.kind == "span"
                and (category is None or e.category == category)
                and (name is None or e.name == name)]

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> List[dict]:
        """The Chrome trace-event JSON array (``ph`` X/i complete/instant).

        Timestamps and durations are virtual microseconds.  Each distinct
        track becomes a named thread under one "oasis-sim" process, so
        Perfetto/chrome://tracing lays events out per component.

        Spans whose args carry ``flow_id``/``flow_step`` (emitted by
        :class:`~repro.obs.flow.FlowRegistry`) additionally produce Chrome
        flow-event records (``ph`` s/t/f sharing ``id=flow_id``), so the
        viewer draws arrows connecting each request's stage spans along its
        path through the pod.
        """
        tracks = sorted({e.track for e in self.events})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        out: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "oasis-sim"},
        }]
        for track, tid in tids.items():
            out.append({"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": tid, "args": {"name": track}})
        for event in self.events:
            record = {
                "name": event.name,
                "cat": event.category or "event",
                "ts": event.ts * 1e6,
                "pid": 1,
                "tid": tids[event.track],
                "args": event.args,
            }
            if event.kind == "span":
                record["ph"] = "X"
                record["dur"] = event.dur * 1e6
            else:
                record["ph"] = "i"
                # Alert instants get process scope so they draw a full-height
                # marker across every track (an alert concerns the whole
                # pod); everything else stays thread-scoped.
                record["s"] = "p" if event.category == "alert" else "t"
            out.append(record)
            flow_step = event.args.get("flow_step")
            if flow_step in ("s", "t", "f") and "flow_id" in event.args:
                arrow = {
                    "name": f"flow-{event.args.get('kind', 'request')}",
                    "cat": "flow",
                    "ph": flow_step,
                    "id": event.args["flow_id"],
                    "ts": event.ts * 1e6,
                    "pid": 1,
                    "tid": tids[event.track],
                }
                if flow_step == "f":
                    arrow["bp"] = "e"    # bind the arrow to the enclosing slice
                out.append(arrow)
        return out

    def export_chrome(self, path: str) -> int:
        """Write the Chrome-trace JSON to ``path``; returns event count."""
        records = self.chrome_trace()
        with open(path, "w") as f:
            json.dump(records, f)
        return len(records)

    def timeline(self, limit: Optional[int] = None,
                 category: Optional[str] = None) -> str:
        """Plain-text timeline, one event per line, time-ordered."""
        events = [e for e in self.events
                  if category is None or e.category == category]
        events.sort(key=lambda e: e.ts)
        if limit is not None:
            events = events[:limit]
        lines = []
        for e in events:
            stamp = f"{e.ts * 1e3:12.6f} ms"
            if e.kind == "span":
                body = f"{e.name} [{e.dur * 1e3:.6f} ms]"
            else:
                body = e.name
            extra = (" " + " ".join(f"{k}={v}" for k, v in e.args.items())
                     if e.args else "")
            lines.append(f"{stamp}  {e.track:<20} {e.category:<10} {body}{extra}")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (max_events reached)")
        return "\n".join(lines)


class _NullTracer(Tracer):
    """A permanently disabled tracer usable as a default attribute."""

    def __init__(self):
        super().__init__(sim=None, enabled=False)


#: shared no-op tracer; components default to this until a pod wires a real one
NULL_TRACER = _NullTracer()


class TracerBinding:
    """Mixin for a component that emits trace events on a hot path.

    ``tracer`` is always a tracer; ``_trace`` is the alias hot paths test
    once: None while tracing is off, rebound by :meth:`set_tracer` when the
    pod turns it on.
    """

    tracer = NULL_TRACER
    _trace = None

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        self._trace = tracer if tracer.enabled else None
