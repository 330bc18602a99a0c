"""Benchmark: Figure 10 -- UDP echo overhead, 75 B vs 1500 B packets.

Paper: +4-7 us regardless of packet size.
"""

from repro.experiments import fig10


def test_fig10_udp_echo(benchmark):
    results = benchmark.pedantic(fig10.main, rounds=1, iterations=1)
    deltas = []
    for size in (75, 1500):
        cell = results[size]["low"]
        deltas.append(cell["oasis"]["p50"] - cell["baseline"]["p50"])
    assert all(1.5 <= d <= 10.0 for d in deltas)
    assert abs(deltas[0] - deltas[1]) < 2.5   # size-independent
