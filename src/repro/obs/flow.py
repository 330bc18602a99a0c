"""End-to-end flow tracing: per-request latency attribution (Fig 11's lens).

Aggregate metrics (``repro.obs.metrics``) say *how much* each component did;
spans (``repro.obs.trace``) say *when* components were busy.  Neither can
answer the paper's central latency question -- where do the ~4 us of Oasis
datapath overhead on *one request* actually go?  Flow tracing does:

* a :class:`FlowContext` is attached at the request's origin (the workload
  layer: an echo client send, a block-I/O submission) and rides the request
  through every hop it crosses;
* each hop calls :meth:`FlowContext.stage` exactly when the request *enters*
  it, recording a named, causally-ordered timestamp (optionally annotated
  with the queue depth observed on entry);
* when the request completes, :meth:`FlowRegistry.complete` turns the mark
  sequence into a :class:`FlowRecord` whose stage segments telescope --
  segment ``i`` spans mark ``i`` to mark ``i+1`` -- so they sum to the
  end-to-end latency *by construction* (the conservation invariant).

Propagation crosses two kinds of boundary:

* **object hops** (switch forwarding, instance delivery, transport replies):
  the context travels in ``Frame.meta["flow"]`` by reference;
* **memory hops** (a frame packed into a shared CXL buffer and later
  DMA-read/unpacked by a device, or a 64 B storage command naming a buffer):
  object identity is lost, so the producer stashes the context in the
  registry keyed by the buffer address and the consumer picks it back up
  (:meth:`FlowRegistry.stash` / :meth:`peek` / :meth:`pop`).

A disabled registry (the default in :class:`~repro.core.pod.CXLPod`) makes
``start`` return ``None`` and every instrumented hot path guard on that (or
on an empty ``frame.meta``), so flow tracing costs a boolean/dict check per
hop unless a run opts in -- the same NULL-object discipline as
:data:`~repro.obs.trace.NULL_TRACER`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .trace import NULL_TRACER

__all__ = [
    "FlowContext",
    "FlowSegment",
    "FlowRecord",
    "FlowRegistry",
    "NULL_FLOWS",
    "FlowBinding",
]


class FlowContext:
    """One in-flight request's identity and causally-ordered stage marks."""

    __slots__ = ("flow_id", "kind", "origin", "t0", "marks", "meta", "done",
                 "_registry")

    def __init__(self, registry: "FlowRegistry", flow_id: int, kind: str,
                 origin: str, t0: float, first_stage: str,
                 meta: Optional[dict] = None):
        self._registry = registry
        self.flow_id = flow_id
        self.kind = kind
        self.origin = origin
        self.t0 = t0
        #: (stage name, entry sim-time, queue depth observed at entry or None)
        self.marks: List[Tuple[str, float, Optional[int]]] = [
            (first_stage, t0, None)
        ]
        self.meta = meta or {}
        self.done = False

    def stage(self, name: str, depth: Optional[int] = None) -> None:
        """Mark that this request is entering stage ``name`` *now*.

        ``depth`` is the queue/ring occupancy seen on entry (excluding this
        request), which feeds the queueing-vs-service split in
        :mod:`repro.obs.attribution`.
        """
        if self.done:
            return
        self.marks.append((name, self._registry.sim.now, depth))



@dataclass(frozen=True)
class FlowSegment:
    """One attributed latency segment: the time spent in a named stage."""

    name: str
    start: float
    dur: float
    depth: Optional[int] = None

    @property
    def queue_s(self) -> float:
        """Estimated queueing share of this segment.

        With ``d`` same-class requests already queued at entry and FIFO
        service, this request waits roughly ``d`` service times before its
        own: queueing is ``dur * d / (d + 1)``.  Segments without a depth
        annotation are treated as pure service.
        """
        if not self.depth:
            return 0.0
        return self.dur * self.depth / (self.depth + 1)

    @property
    def service_s(self) -> float:
        return self.dur - self.queue_s


class FlowRecord:
    """A completed flow: end-to-end latency decomposed into stage segments."""

    __slots__ = ("flow_id", "kind", "origin", "start", "end", "status",
                 "segments", "meta")

    def __init__(self, flow_id: int, kind: str, origin: str, start: float,
                 end: float, status: str, segments: Tuple[FlowSegment, ...],
                 meta: dict):
        self.flow_id = flow_id
        self.kind = kind
        self.origin = origin
        self.start = start
        self.end = end
        self.status = status
        self.segments = segments
        self.meta = meta

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def total_us(self) -> float:
        return self.total_s * 1e6

    def by_stage(self) -> Dict[str, float]:
        """Seconds per stage name (repeated stages -- e.g. the switch on both
        legs of an echo -- are summed)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.name] = out.get(seg.name, 0.0) + seg.dur
        return out

    def conservation_error_s(self) -> float:
        """|sum(segments) - total|; zero up to float rounding by design."""
        return abs(sum(s.dur for s in self.segments) - self.total_s)



class FlowRegistry:
    """Pod-wide flow bookkeeping: open contexts, the address stash, records.

    The registry also feeds two consumers on completion:

    * :class:`~repro.obs.attribution.FlowAttribution` -- streaming per-stage
      histograms (so percentile attribution survives the record cap);
    * the pod :class:`~repro.obs.trace.Tracer` (when enabled) -- each segment
      becomes a ``category="flow"`` span carrying Perfetto flow-arrow
      metadata, so Chrome/Perfetto draws arrows along the request's path.
    """

    def __init__(self, sim, enabled: bool = False, max_records: int = 100_000,
                 max_stash: int = 65_536):
        self.sim = sim
        self.enabled = enabled
        self.max_records = max_records
        self.max_stash = max_stash
        self.records: List[FlowRecord] = []
        self.dropped_records = 0
        self.started = 0
        self.completed = 0
        self.stash_evicted = 0
        self.tracer = NULL_TRACER
        self._next_id = 1
        self._stash: "OrderedDict[Any, FlowContext]" = OrderedDict()
        # Lazy import avoids a cycle (attribution builds on metrics only,
        # but flow is imported from obs.__init__ before attribution).
        from .attribution import FlowAttribution

        self.attribution = FlowAttribution()

    # -- lifecycle -----------------------------------------------------------

    def start(self, kind: str, origin: str = "", stage: str = "origin",
              **meta) -> Optional[FlowContext]:
        """Open a flow at the current sim time; ``None`` when disabled."""
        if not self.enabled:
            return None
        ctx = FlowContext(self, self._next_id, kind, origin, self.sim.now,
                          stage, meta or None)
        self._next_id += 1
        self.started += 1
        return ctx

    def complete(self, ctx: Optional[FlowContext],
                 status: str = "ok") -> Optional[FlowRecord]:
        """Close ``ctx`` now; build, store and publish its record."""
        if ctx is None or ctx.done:
            return None
        ctx.done = True
        end = self.sim.now
        marks = ctx.marks
        segments = []
        for i, (name, ts, depth) in enumerate(marks):
            seg_end = marks[i + 1][1] if i + 1 < len(marks) else end
            segments.append(FlowSegment(name, ts, max(seg_end - ts, 0.0),
                                        depth))
        record = FlowRecord(ctx.flow_id, ctx.kind, ctx.origin, ctx.t0, end,
                            status, tuple(segments), ctx.meta)
        self.completed += 1
        if len(self.records) < self.max_records:
            self.records.append(record)
        else:
            self.dropped_records += 1
        self.attribution.observe(record)
        if self.tracer.enabled:
            self._emit_trace(record)
        return record

    def _emit_trace(self, record: FlowRecord) -> None:
        last = len(record.segments) - 1
        for i, seg in enumerate(record.segments):
            step = "s" if i == 0 else ("f" if i == last else "t")
            self.tracer.span(
                seg.name, seg.start, seg.dur, category="flow",
                track=f"flow/{seg.name}", flow_id=record.flow_id,
                flow_step=step, kind=record.kind,
            )

    # -- cross-boundary propagation (buffer-address stash) --------------------

    def stash(self, addr: Any, ctx: Optional[FlowContext]) -> None:
        """Park ``ctx`` under a buffer address until the consumer picks it up."""
        if ctx is None:
            return
        self._stash[addr] = ctx
        while len(self._stash) > self.max_stash:
            self._stash.popitem(last=False)
            self.stash_evicted += 1

    def pop(self, addr: Any) -> Optional[FlowContext]:
        return self._stash.pop(addr, None)

    def mark(self, addr: Any, stage: str, depth: Optional[int] = None) -> None:
        """Stage-mark the request parked under ``addr``, if there is one."""
        ctx = self._stash.get(addr)
        if ctx is not None:
            ctx.stage(stage, depth)

    # -- reading -------------------------------------------------------------

    def top_slowest(self, n: int = 10,
                    kind: Optional[str] = None) -> List[FlowRecord]:
        records = (r for r in self.records
                   if kind is None or r.kind == kind)
        return heapq.nlargest(n, records, key=lambda r: r.total_s)

    def check_conservation(self, tol_s: float = 1e-9) -> List[FlowRecord]:
        """Records violating the segments-sum-to-total invariant (should be
        empty; exposed so tests assert it on real workloads)."""
        return [r for r in self.records if r.conservation_error_s() > tol_s]


class _NullFlowRegistry(FlowRegistry):
    """A permanently disabled registry usable as a default class attribute."""

    def __init__(self):
        super().__init__(sim=None, enabled=False)


#: shared no-op registry; components default to this until a pod wires one
NULL_FLOWS = _NullFlowRegistry()


class FlowBinding:
    """Mixin for a component that stage-marks flows on a hot path.

    ``flows`` is always a registry; ``_flows`` is the alias hot paths test
    once: None while flow tracing is off, rebound by :meth:`set_flows` when
    the pod turns it on.
    """

    flows = NULL_FLOWS
    _flows = None

    def set_flows(self, flows) -> None:
        self.flows = flows
        self._flows = flows if flows.enabled else None
