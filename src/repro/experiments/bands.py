"""One band per paper quantity: what the paper reports, and the inclusive
``[lo, hi]`` a run of the model must land in at any scale.

A :class:`Band` row names its experiment module, the small ``run()`` kwargs
tier-1 uses and how to read the quantity off the results.  Two readers check
every row: ``tests/test_experiments.py`` on ``run(**small)`` and
``benchmarks/test_paper_bands.py`` on ``main()`` at ``OASIS_SCALE``.  No band
is written anywhere else, and :mod:`repro.experiments` does not import this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence

__all__ = ["Band", "BANDS"]

INF = math.inf


@dataclass(frozen=True)
class Band:
    key: str
    paper: str
    module: str
    small: Mapping
    measure: Callable[[dict], Sequence[float]]
    lo: float = -INF
    hi: float = INF

    def values(self, results: dict) -> list:
        return [float(v) for v in self.measure(results)]

    def holds(self, values: Sequence[float]) -> bool:
        return bool(values) and all(self.lo <= v <= self.hi for v in values)


#: Tier-1's ``run()`` keyword arguments, one set per module.
_SMALL: Dict[str, dict] = {
    "table1": {},
    "fig2": {"n_instances": 1500, "n_hosts": 24, "pod_sizes": (1, 8)},
    "fig3": {},
    "table2": {},
    "fig6": {"offered_mops": (2.0,), "n_messages": 6000, "slots": 2048},
    "fig8": {"apps": ("nginx",), "loads": {"low": 0.2}, "duration_s": 0.05},
    "fig9": {"duration_s": 0.002},
    "fig10": {"sizes": (75, 1500), "loads": {"low": 20_000.0},
              "duration_s": 0.05},
    "fig11": {"sizes": (75,), "loads": {"low": 20_000.0}, "duration_s": 0.05},
    "table3": {"duration_s": 0.05},
    "fig12": {"duration_s": 0.08},
    "fig13": {"duration_s": 1.2, "rate_pps": 3000, "fail_at_s": 0.602},
    "fig14": {"duration_s": 1.6, "rate_rps": 2500, "fail_at_s": 0.802},
}


def _deltas(cells, mode="oasis", base="baseline"):
    """p50 of ``mode`` minus p50 of ``base`` in each cell."""
    return [c[mode]["p50"] - c[base]["p50"] for c in cells]


def _low_moderate(loads: dict) -> list:
    """Near saturation both setups spike alike: no +4-7 us claim there."""
    return [cell for name, cell in loads.items() if name != "high"]


def _fig10_low(r):
    return _deltas(sizes["low"] for sizes in r.values())


def _fig11_low(r):
    return [loads["low"] for size, loads in r.items() if size != "attribution"]


def _saturation(r, design):
    return r["saturation"][design].achieved_mops


def _band(key, paper, measure, lo=-INF, hi=INF) -> Band:
    module = key.split(".", 1)[0]
    return Band(key, paper, module, _SMALL[module], measure, lo, hi)


_ROWS = (
    _band("table1.ssd_bandwidth_gbs", "5 GB/s",
          lambda r: [r["ssd"]["bandwidth_gbs"]], 5.0, 5.0),
    _band("fig2.baseline_nic_stranded", "27 %",
          lambda r: [r["baseline_stranded"]["nic_gbps"]], 0.15, 0.40),
    _band("fig2.baseline_ssd_stranded", "33 %",
          lambda r: [r["baseline_stranded"]["ssd_tb"]], 0.20, 0.45),
    _band("fig3.host1_p99_util", "< 3 %",
          lambda r: [r["hosts"][0]["p99_util"]], 0.0, 0.05),
    _band("fig3.host1_p9999_util", "~39 %",
          lambda r: [r["hosts"][0]["p9999_util"]], 0.2, 1.0),
    _band("fig3.host3_p9999_util", "0 %",
          lambda r: [r["hosts"][2]["p9999_util"]], 0.0, 0.1),
    _band("table2.rack_a_aggregated", "10 %",
          lambda r: [r["A"]["aggregated"]], 0.05, 0.18),
    _band("table2.rack_b_aggregated", "20 %",
          lambda r: [r["B"]["aggregated"]], 0.12, 0.30),
    _band("fig6.oasis_saturation_mops", "87 MOp/s (target 14)",
          lambda r: [_saturation(r, "invalidate-prefetched")], 14.0),
    _band("fig6.saturation_ratios",
          "3.0 < 8.6 < 87 MOp/s: bypass < naive < invalidate-consumed",
          lambda r: [_saturation(r, "naive-prefetch")
                     / _saturation(r, "bypass-cache"),
                     _saturation(r, "invalidate-consumed")
                     / _saturation(r, "naive-prefetch")], 1.0),
    _band("fig6.oasis_idle_p50_us", "~0.6 us",
          lambda r: [r["curves"]["invalidate-prefetched"][0].latency_p50_us],
          0.3, 1.0),
    _band("fig8.overhead_p50_us", "+4-7 us",
          lambda r: _deltas(c for loads in r.values()
                            for c in _low_moderate(loads)), 2.0, 9.0),
    _band("fig9.overhead_p50_us", "+4-7 us",
          lambda r: _deltas(_low_moderate(r)), 2.0, 9.0),
    _band("fig10.overhead_p50_us", "+4-7 us", _fig10_low, 2.0, 9.0),
    _band("fig10.size_spread_us", "independent of 75 B vs 1500 B",
          lambda r: [max(_fig10_low(r)) - min(_fig10_low(r))], 0.0, 2.0),
    _band("fig11.buffer_cost_us", "I/O buffers in CXL: almost none",
          lambda r: _deltas(_fig11_low(r), "local-cxl-buffers", "local"),
          hi=1.0),
    _band("fig11.messaging_cost_us", "nearly all of the +4-7 us",
          lambda r: _deltas(_fig11_low(r), "oasis", "local-cxl-buffers"),
          2.0, 9.0),
    _band("table3.idle_gbps", "0.2 GB/s",
          lambda r: [r["idle"]["total_gbps"]], 0.1, 0.3),
    _band("table3.busy_1500_gbps", "13.5 GB/s",
          lambda r: [r["busy_1500"]["total_gbps"]], 8.0, 20.0),
    _band("table3.busy_1500_payload_share", "89 %",
          lambda r: [r["busy_1500"]["payload_gbps"]
                     / r["busy_1500"]["total_gbps"]], 0.7, 1.0),
    _band("fig12.p9999_util_gain", "18 % -> 37 %",
          lambda r: [r["multiplexed"].nic_p9999_util
                     / r["baseline"].nic_p9999_util], 1.5),
    _band("fig12.host1_p99_delta_us", "host 1 unchanged",
          lambda r: [r["multiplexed"].per_host[0]["p99"]
                     - r["baseline"].per_host[0]["p99"]], hi=15.0),
    _band("fig13.interruption_ms", "38 ms",
          lambda r: [r["interruption_ms"]], 20.0, 60.0),
    _band("fig13.failovers", "one failover to the backup NIC",
          lambda r: [r["failovers"]], 1, 1),
    _band("fig14.recovery_ms", "133 ms",
          lambda r: [r["recovery_ms"]], 50.0, 250.0),
    _band("fig14.retransmits", "the lost requests are retransmitted",
          lambda r: [r["retransmits"]], 1),
)

BANDS: Dict[str, Band] = {row.key: row for row in _ROWS}
