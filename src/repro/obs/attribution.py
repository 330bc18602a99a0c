"""Latency attribution on top of flow records: the bottleneck profiler.

Consumes :class:`~repro.obs.flow.FlowRecord` streams and answers the
questions Fig 11 asks of the real system:

* :class:`FlowAttribution` -- streaming per-stage
  :class:`~repro.obs.metrics.Histogram` percentiles (p50/p99/p999) plus the
  queueing-vs-service split derived from the queue depth each stage saw at
  enqueue;
* :func:`critical_path` -- which stage dominates end-to-end latency in each
  percentile bucket (the p50 bottleneck is often not the p999 bottleneck);
* :func:`render_waterfall` -- a per-request text waterfall for terminals.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .metrics import Histogram, labels_key

__all__ = [
    "FlowAttribution",
    "StageStats",
    "critical_path",
    "render_waterfall",
]

#: microsecond-scale buckets for stage/total histograms
_US_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
               256.0, 512.0, 1024.0, float("inf"))


def _percentile(hist: Histogram, q: float) -> float:
    import numpy as np
    if not hist.observations:
        return float("nan")
    return float(np.percentile(np.asarray(hist.observations), q))


class StageStats:
    """Streaming statistics for one named stage across all observed flows."""

    __slots__ = ("name", "hist", "depth_sum", "depth_n", "queue_us", "service_us")

    def __init__(self, name: str):
        self.name = name
        self.hist = Histogram("flow_stage_us", labels_key({"stage": name}),
                              help="per-flow time in stage (us)",
                              buckets=_US_BUCKETS, keep_raw=True)
        self.depth_sum = 0.0
        self.depth_n = 0
        self.queue_us = 0.0
        self.service_us = 0.0

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def mean_depth(self) -> float:
        return self.depth_sum / self.depth_n if self.depth_n else 0.0

    @property
    def queue_share(self) -> float:
        total = self.queue_us + self.service_us
        return self.queue_us / total if total else 0.0

    def percentile(self, q: float) -> float:
        return _percentile(self.hist, q)


class FlowAttribution:
    """Streaming per-stage attribution fed by ``FlowRegistry.complete``."""

    def __init__(self):
        self.stages: Dict[str, StageStats] = {}
        self.total = Histogram("flow_total_us", labels_key({}),
                               help="end-to-end flow latency (us)",
                               buckets=_US_BUCKETS, keep_raw=True)
        self.flows = 0

    def observe(self, record) -> None:
        self.flows += 1
        self.total.observe(record.total_us)
        # Sum repeated stages (e.g. switch.wire on both echo legs) within a
        # flow so a stage contributes once per request to its distribution.
        per_stage: Dict[str, List] = {}
        for seg in record.segments:
            per_stage.setdefault(seg.name, []).append(seg)
        for name, segs in per_stage.items():
            stats = self.stages.get(name)
            if stats is None:
                stats = self.stages[name] = StageStats(name)
            stats.hist.observe(sum(s.dur for s in segs) * 1e6)
            for seg in segs:
                if seg.depth is not None:
                    stats.depth_sum += seg.depth
                    stats.depth_n += 1
                stats.queue_us += seg.queue_s * 1e6
                stats.service_us += seg.service_s * 1e6

    # -- reading -------------------------------------------------------------

    def total_percentile(self, q: float) -> float:
        return _percentile(self.total, q)

    def stage_p50s(self) -> Dict[str, float]:
        return {name: stats.percentile(50.0)
                for name, stats in self.stages.items()}

    def table(self, percentiles: Sequence[float] = (50.0, 99.0, 99.9)
              ) -> List[tuple]:
        """Rows ``(stage, count, pXX..., mean_depth, queue_share)`` sorted by
        descending p50 contribution (the attribution table of the CLI)."""
        rows = []
        for name, stats in self.stages.items():
            rows.append((
                name, stats.count,
                *(round(stats.percentile(q), 3) for q in percentiles),
                round(stats.mean_depth, 2),
                round(stats.queue_share, 3),
            ))
        rows.sort(key=lambda r: -(r[2] if r[2] == r[2] else 0.0))
        return rows


_DEFAULT_BUCKETS = ((0.0, 50.0), (50.0, 90.0), (90.0, 99.0), (99.0, 100.0))


def critical_path(records, buckets: Sequence[Tuple[float, float]] = _DEFAULT_BUCKETS
                  ) -> List[dict]:
    """Name the dominant stage per total-latency percentile bucket.

    For every bucket ``(lo, hi)`` of the end-to-end latency distribution,
    sums each stage's time across the flows whose total falls in that
    bucket and reports the stage with the largest share -- the answer to
    "what should I optimise to move the pXX?".
    """
    import numpy as np
    records = list(records)
    if not records:
        return []
    totals = np.asarray([r.total_s for r in records])
    out = []
    for lo, hi in buckets:
        t_lo = np.percentile(totals, lo)
        t_hi = np.percentile(totals, hi)
        selected = [r for r in records
                    if t_lo <= r.total_s <= t_hi]
        if not selected:
            continue
        stage_sums: Dict[str, float] = {}
        for record in selected:
            for name, dur in record.by_stage().items():
                stage_sums[name] = stage_sums.get(name, 0.0) + dur
        grand = sum(stage_sums.values()) or 1.0
        dominant, dom_time = max(stage_sums.items(), key=lambda kv: kv[1])
        out.append({
            "bucket": f"p{lo:g}-p{hi:g}",
            "flows": len(selected),
            "mean_total_us": float(np.mean([r.total_us for r in selected])),
            "dominant_stage": dominant,
            "dominant_share": dom_time / grand,
        })
    return out


def render_waterfall(record, width: int = 50) -> str:
    """A per-request text waterfall: one bar per segment, offset in time."""
    total = record.total_s or 1e-12
    lines = [f"flow #{record.flow_id} [{record.kind}] "
             f"total {record.total_us:.3f} us ({len(record.segments)} segments)"]
    for seg in record.segments:
        offset = int((seg.start - record.start) / total * width)
        length = max(1, int(round(seg.dur / total * width)))
        offset = min(offset, width - 1)
        length = min(length, width - offset)
        bar = " " * offset + "#" * length
        depth = f" depth={seg.depth}" if seg.depth is not None else ""
        lines.append(f"  {seg.name:<14} |{bar:<{width}}| "
                     f"{seg.dur * 1e6:9.3f} us{depth}")
    return "\n".join(lines)
