"""Ablations of the design choices DESIGN.md calls out, beyond the paper's
figures.

* Message channel (§3.2.2, §4): the prefetch depth (the paper picked 16),
  the consumed-counter update batch (half the ring), ring capacity and
  message size (16 B network vs 64 B storage messages).
* CXL link QoS (§6): a colocated OLAP-like scan shares the backend host's
  x8 link with packet DMA.  §2.3's 2-3 GB/s is harmless, an oversubscribed
  hog inflates latency, and an RDT-style cap (§6's mitigation) restores it.
* Failover: the paper's 38 ms interruption is dominated by detection, so a
  faster link monitor shrinks it (at the cost of more control-plane work).
"""

from dataclasses import replace

from repro.analysis.report import render_table
from repro.channel.microbench import ChannelMicrobench
from repro.config import OasisConfig
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.workloads.echo import EchoClient
from repro.workloads.interference import CXLBandwidthLoad

SLOTS = 2048
N = 10_000


def _channel_mops(label, title, points):
    """Design ④'s MOp/s at each ``(value, n, ChannelMicrobench kwargs)``."""
    rows = [(value, ChannelMicrobench("invalidate-prefetched", **kwargs)
             .run(n).achieved_mops) for value, n, kwargs in points]
    print(render_table([label, "MOp/s"], rows, title=title))
    return dict(rows)


def test_ablation_prefetch_depth():
    """Deeper prefetch raises throughput until the window covers the CXL
    latency; depth 16 (the paper's choice) is near the knee."""
    mops = _channel_mops(
        "prefetch depth", "Ablation: prefetch depth (paper picks 16)",
        [(depth, N, {"slots": SLOTS, "prefetch_depth": depth})
         for depth in (0, 2, 4, 8, 16, 32)])
    assert mops[16] > mops[0] * 2     # prefetching is the point
    assert mops[16] >= mops[2] * 0.9  # and 16 is at/near the knee


def test_ablation_counter_batch():
    """Publishing the consumed counter on every message wastes writebacks;
    batching (§4: half the ring) recovers the throughput."""
    mops = _channel_mops(
        "counter batch", "Ablation: consumed-counter update batch",
        [(batch, N, {"slots": SLOTS, "counter_batch": batch})
         for batch in (1, 16, 256, SLOTS // 2)])
    assert mops[SLOTS // 2] > mops[1]


def test_ablation_ring_capacity():
    """Tiny rings throttle the sender via backpressure (counter refresh +
    retry stalls); once the ring absorbs bursts, capacity stops mattering.
    Each point runs >= 4 ring laps for steady state."""
    mops = _channel_mops(
        "ring slots", "Ablation: ring capacity (paper: 8192)",
        [(slots, max(N, slots * 4), {"slots": slots})
         for slots in (64, 512, 8192)])
    assert mops[512] > mops[64]          # backpressure hurts tiny rings
    assert mops[8192] >= 0.5 * mops[512]


def test_ablation_message_size():
    """64 B messages carry 4x the bytes per slot: per-message cost rises,
    which is why the network engine uses 16 B messages (§3.3)."""
    mops = _channel_mops(
        "message bytes", "Ablation: message size (16 B net / 64 B storage)",
        [(size, N, {"slots": SLOTS, "message_size": size})
         for size in (16, 64)])
    assert mops[16] > mops[64]


def _echo_percentiles(hog_gbps, cap=None, duration=0.05):
    pod, _, client, nic = build_echo_pod("oasis", remote=True)
    echo = EchoClient(pod.sim, client, SERVER_IP, packet_size=1500,
                      rate_pps=20_000)
    if hog_gbps:
        CXLBandwidthLoad(pod.sim, nic.host, hog_gbps, rdt_cap_gbps=cap).start()
    echo.start(duration)
    pod.run(duration + 0.03)
    pod.stop()
    return echo.stats.percentile_us(50), echo.stats.percentile_us(99)


def test_ablation_cxl_qos():
    rows = [(label, *_echo_percentiles(hog, cap)) for label, hog, cap in (
        ("no colocated load", 0.0, None),
        ("OLTP-like (2 GB/s)", 2.0, None),
        ("OLAP-like (20 GB/s)", 20.0, None),
        ("oversubscribed (40 GB/s)", 40.0, None),
        ("oversubscribed + RDT cap 15", 40.0, 15.0),
    )]
    print(render_table(
        ["colocated CXL load", "echo p50 us", "echo p99 us"], rows,
        title="Ablation: CXL link QoS (x8 link, ~29 GB/s/direction)"))
    p99 = {label: p99 for label, _, p99 in rows}
    assert p99["OLTP-like (2 GB/s)"] < p99["no colocated load"] + 2.0
    assert p99["oversubscribed (40 GB/s)"] > p99["no colocated load"] + 10.0
    assert p99["oversubscribed + RDT cap 15"] < \
        p99["oversubscribed (40 GB/s)"] / 2


def _interruption_ms(monitor_ms: float) -> float:
    config = OasisConfig(failover=replace(
        OasisConfig().failover, link_monitor_interval_ms=monitor_ms))
    pod, _, client, nic0 = build_echo_pod("oasis", remote=True, config=config,
                                          backup_nic=True)
    echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=4000)
    echo.start(0.9)
    pod.run(0.3002)
    pod.fail_switch_port(nic0)
    pod.run(0.8)
    pod.stop()
    recv = echo.stats.recv_times
    return max(b - a for a, b in zip(recv, recv[1:])) * 1000


def test_ablation_link_monitor_interval():
    rows = [(ms, _interruption_ms(ms)) for ms in (5.0, 25.0, 100.0)]
    print(render_table(["monitor interval ms", "interruption ms"], rows,
                       title="Ablation: failover vs link-monitor interval"))
    interruption = dict(rows)
    assert interruption[5.0] < interruption[100.0]
