"""Benchmark: Figure 11 -- overhead breakdown.

Paper: I/O buffers in CXL cost almost nothing; cross-host message passing is
nearly all of the overhead.  The flow-derived attribution run cross-checks
the differenced breakdown against per-stage decomposition of the same RTTs.
"""

from repro.experiments import fig11


def test_fig11_breakdown(benchmark):
    results = benchmark.pedantic(fig11.main, rounds=1, iterations=1)
    for size in (75, 1500):
        cell = results[size]["low"]
        buffers = cell["local-cxl-buffers"]["p50"] - cell["local"]["p50"]
        messaging = cell["oasis"]["p50"] - cell["local-cxl-buffers"]["p50"]
        assert buffers < 1.5
        assert messaging > buffers
