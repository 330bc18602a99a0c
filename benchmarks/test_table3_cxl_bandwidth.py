"""Benchmark: Table 3 -- CXL link bandwidth under varying network load.

Paper: idle 0.2 GB/s; busy 75 B 2.3 GB/s; busy 1500 B 13.5 GB/s with ~89 %
of traffic being payload buffers.
"""

from repro.experiments import table3
from repro.experiments.common import scale

#: PR 15 changed how ``repro.mem`` stores lines, not which lines move: at full
#: scale the per-category link bytes are, to the last bit, what the per-line
#: model counted (45,002 NIC operations per row, scaled to 4 MOp/s).
PARENT_FULL_SCALE = {
    "busy_75": {"payload_gbps": 0.9180113772721212, "message_gbps": 1.4953660726189948,
                "total_gbps": 2.413377449891116, "ops_measured": 45002.0},
    "busy_1500": {"payload_gbps": 12.216011377272121, "message_gbps": 1.4953660726189948,
                  "total_gbps": 13.711377449891115, "ops_measured": 45002.0},
}


def test_table3_cxl_bandwidth(benchmark):
    results = benchmark.pedantic(table3.main, rounds=1, iterations=1)
    assert abs(results["idle"]["total_gbps"] - 0.2) < 0.1
    row = results["busy_1500"]
    assert row["payload_gbps"] / row["total_gbps"] > 0.7
    assert 8.0 <= row["total_gbps"] <= 20.0
    if scale() == 1.0:
        for load, expected in PARENT_FULL_SCALE.items():
            assert results[load] == expected, load
