"""Benchmark: multi-tenant QoS serving under a noisy neighbour (PR 10).

Headline metrics for the serving PR (not a paper figure): run the full
``python -m repro serve`` scenario -- a latency-sensitive memcached-like
tenant, a diurnal web tenant and a bursty background tenant sharing one
derated SSD through per-tenant weighted-fair queueing, with the background
tenant surging to 8x its share -- and check

* ``p99_ratio``      -- the victim (mc) tenant's surge-window P99 in the
  mix as a multiple of its solo-run P99 (same seed, same RNG substreams);
* ``min_share_frac`` -- the worst tenant's surge-window goodput as a
  fraction of its weighted fair share, water-filled over measured demand;
* per-tenant goodput/shed/SLO-burn ledgers plus the WFQ and invariant
  verdicts from both runs.

Both headline numbers are ratios of simulated-time quantities; the
thresholds and the ``ok`` verdict live in :mod:`repro.experiments.serve`.
"""

from repro.experiments.serve import run_serve


def test_serve_isolation():
    result = run_serve()

    assert result["ok"]
    # The scenario really exercised isolation: the noisy neighbour shed
    # traffic while the victim tenants shed nothing.
    lanes = result["mix"]["frontend_tenants"]
    assert lanes["bg"]["shed"] > 0
    assert lanes["mc"]["shed"] == 0
    assert lanes["web"]["shed"] == 0
