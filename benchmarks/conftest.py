"""Benchmark-suite configuration.

``test_paper_bands.py`` regenerates every paper table and figure, prints the
rows the paper reports and checks each band of ``repro.experiments.bands``.
Simulated durations default to half scale so the whole suite finishes in
minutes; set ``OASIS_SCALE=1`` for full-scale runs (or higher for tighter
statistics).

The scenario benchmarks (overload, serve, rack) assert the verdict their
scenario module computes; each threshold lives in that module.  Host-time
regressions are measured by ``perf/`` (``BENCHMARK.json``), not here.
"""

import os

os.environ.setdefault("OASIS_SCALE", "0.5")
