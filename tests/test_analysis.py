"""Tests for statistics and report rendering helpers."""

import numpy as np
import pytest

from repro.analysis.report import fmt, render_series, render_table
from repro.analysis.stats import (
    bin_bandwidth,
    summarize_latencies,
    utilization_percentile,
    utilization_series,
)


class TestBinning:
    def test_bytes_fall_into_correct_bins(self):
        out = bin_bandwidth(np.array([0.0, 0.15e-5 * 10, 2.5e-5]),
                            np.array([100, 200, 300]),
                            duration_s=3e-5, bin_s=1e-5)
        assert list(out) == [100, 200, 300]

    def test_empty_stream(self):
        out = bin_bandwidth(np.array([]), np.array([]), 1e-3)
        assert out.sum() == 0

    def test_late_packets_clamped_to_last_bin(self):
        out = bin_bandwidth(np.array([9.99e-3]), np.array([50]),
                            duration_s=1e-3, bin_s=1e-4)
        assert out[-1] == 50

    def test_utilization_series_normalized(self):
        # One 125-byte packet in a 10 us bin on a 100 Mbit/s link = 1%.
        series = utilization_series(np.array([0.0]), np.array([125]),
                                    1e-4, link_bytes_per_sec=12.5e6,
                                    bin_s=1e-5)
        assert series[0] == pytest.approx(1.0)

    def test_utilization_percentile(self):
        times = np.zeros(10)
        sizes = np.full(10, 125)
        p100 = utilization_percentile(times, sizes, 1e-4, 12.5e6, 100,
                                      bin_s=1e-5)
        assert p100 == pytest.approx(10.0)


class TestSummaries:
    def test_summarize_latencies(self):
        summary = summarize_latencies(list(range(1, 101)))
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] > summary["p90"] > summary["p50"]

    def test_summarize_empty(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0
        assert np.isnan(summary["p50"])


class TestRendering:
    def test_fmt(self):
        assert fmt("text") == "text"
        assert fmt(None) == "-"
        assert fmt(3.14159, 2) == "3.14"
        assert fmt(float("nan")) == "nan"
        assert fmt(7) == "7"

    def test_render_table_aligns_columns(self):
        table = render_table(["name", "value"], [("a", 1.0), ("bb", 22.5)],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2   # aligned widths

    def test_render_series(self):
        out = render_series("S", [1, 2], [10.0, 20.0], "x", "y")
        assert "S" in out and "10.00" in out
