"""Measurement analysis: percentiles, utilization, report rendering."""

from .report import fmt, render_series, render_table
from .stats import (
    bin_bandwidth,
    summarize_latencies,
    utilization_percentile,
    utilization_series,
)

__all__ = [
    "bin_bandwidth",
    "utilization_series",
    "utilization_percentile",
    "summarize_latencies",
    "render_table",
    "render_series",
    "fmt",
]
