"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures and prints the
rows the paper reports.  Simulated durations default to half scale so the
whole suite finishes in minutes; set ``OASIS_SCALE=1`` for full-scale runs
(or higher for tighter statistics).

The scenario benchmarks (overload, serve, rack) assert the verdict their
scenario module computes; each threshold lives in that module.  Host-time
regressions are measured by ``perf/`` (``BENCHMARK.json``), not here.
"""

import os

os.environ.setdefault("OASIS_SCALE", "0.5")
