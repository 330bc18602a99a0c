"""Benchmark: goodput under overload, retry budgets on vs off (PR 9).

Headline metrics for the overload-robustness PR (not a paper figure): drive
the open-loop block client through a 1.5x-capacity surge against a pooled
SSD and run the full ``python -m repro overload`` sweep -- per-bin
goodput/latency curves for both runs plus

* ``recovery_on``  -- post-surge goodput as a fraction of pre-surge goodput
  with admission control, retry budgets, breakers and brownout armed;
* ``recovery_off`` -- the same ratio for the unprotected ablation, which
  must stay collapsed (the metastable retry storm outliving the surge);
* ``surge_goodput_frac_on`` -- goodput *during* the surge as a fraction of
  device capacity (the protected pod keeps the device busy with useful
  work while shedding the excess).

All three are ratios of simulated-time quantities; the thresholds and the
``ok`` verdict live in :mod:`repro.experiments.overload`.
"""

from repro.experiments.overload import run_overload


def test_overload_recovery():
    result = run_overload()

    assert result["ok"]
    # The off-run really was an overload (not a tuned-down workload): the
    # surge pushed offered load past device capacity.
    assert result["surge_rate_iops"] > result["capacity_iops"]
