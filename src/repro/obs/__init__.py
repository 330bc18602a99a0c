"""Unified observability layer: metrics registry, sim-time tracer, scraper.

* :mod:`repro.obs.metrics` -- named/labelled counters, gauges, histograms
  interned once into a series table and scraped as flat value vectors
  (:class:`MetricsRegistry`, :class:`MetricsSnapshot`).
* :mod:`repro.obs.trace` -- typed span/instant events against the virtual
  clock with Chrome-trace/Perfetto JSON export (:class:`Tracer`).
* :mod:`repro.obs.scraper` -- a sim-time process sampling the registry into
  time-series buffers (:class:`TelemetryScraper`).
* :mod:`repro.obs.flow` -- end-to-end per-request flow tracing: a
  :class:`FlowContext` rides each request through every hop, yielding
  latency records whose stage segments sum to the end-to-end total.
* :mod:`repro.obs.attribution` -- the bottleneck profiler on top of flow
  records: streaming per-stage percentiles, queueing-vs-service splits and
  critical-path summaries.
* :mod:`repro.obs.bindings` -- readers that expose the pre-existing
  ad-hoc counter classes (``LinkStats``, ``CacheStats``, ...) through the
  registry without mutating them.
* :mod:`repro.obs.fleet` -- the streaming fleet-health pipeline on top of
  the scraper: one latest level per gauge, EWMA + p50/p99 sketches for
  the three families the dashboard renders, live pool-stranding gauges
  matching the Figure 2 offline definition, a declarative
  :class:`AlertEngine`, and the :class:`FleetHealth` query methods behind
  ``python -m repro top``.
"""

from .attribution import (
    FlowAttribution,
    critical_path,
    render_waterfall,
)
from .fleet import (
    DEFAULT_ALERT_RULES,
    AlertEngine,
    AlertEvent,
    AlertRule,
    FleetHealth,
    HealthSeries,
    StrandingGauge,
)
from .flow import NULL_FLOWS, FlowContext, FlowRecord, FlowRegistry, FlowSegment
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Sample,
    labels_key,
)
from .scraper import TelemetryScraper
from .trace import NULL_TRACER, TraceEvent, Tracer
from . import bindings

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Sample",
    "labels_key",
    "TelemetryScraper",
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "FlowContext",
    "FlowSegment",
    "FlowRecord",
    "FlowRegistry",
    "NULL_FLOWS",
    "FlowAttribution",
    "critical_path",
    "render_waterfall",
    "FleetHealth",
    "HealthSeries",
    "StrandingGauge",
    "AlertEngine",
    "AlertRule",
    "AlertEvent",
    "DEFAULT_ALERT_RULES",
    "bindings",
]
