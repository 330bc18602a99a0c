"""Benchmark: Figure 13 -- UDP packet loss through a NIC failover.

Paper: a single ~38 ms loss burst, then traffic resumes on the backup NIC.
"""

from repro.experiments import fig13


def test_fig13_failover_udp(benchmark):
    results = benchmark.pedantic(fig13.main, rounds=1, iterations=1)
    assert 20.0 <= results["interruption_ms"] <= 60.0
    assert results["failovers"] == 1
