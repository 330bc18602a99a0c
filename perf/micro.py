"""Layer microbenchmarks: short loops over one layer's public functions.

Each loop runs for ``LOOP_S`` of host time and reports operations per host
second (``obs.micro_snapshot_ms`` reports milliseconds).  They validate the
layers one at a time, the way CXL-DMSim validates its components before it
trusts an end-to-end number: a change that moves ``mem.micro_*`` should move
``wall_us_per_request`` on the storage workloads, and so on (README.md).
"""

from __future__ import annotations

import time

from hostclock import at_reference_speed, spin
from repro.channel.designs import make_receiver
from repro.channel.protocol import ChannelSender
from repro.channel.ring import RingLayout
from repro.config import OasisConfig
from repro.core.pod import CXLPod
from repro.experiments.common import build_echo_pod
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import Region
from repro.net.packet import Frame, make_ip, make_mac
from repro.net.switch import LearningSwitch
from repro.obs.metrics import MetricsRegistry
from repro.overload.admission import AdmissionQueue
from repro.overload.wfq import TenantSpec, WeightedFairScheduler
from repro.pcie.queues import DescriptorRing
from repro.sim.core import Simulator

__all__ = ["run_all", "LOOP_S"]

LOOP_S = 0.3


def _rate(batch, ops_per_batch: int) -> float:
    """Call ``batch()`` until LOOP_S has passed; operations per host second
    at the reference box's speed (a calibration sample on either side)."""
    batch()     # warm: first-call specialisation, lazy allocation
    spins = [spin()]
    done, start = 0, time.perf_counter()
    while True:
        batch()
        done += ops_per_batch
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_S:
            break
    spins.append(spin())
    return done / at_reference_speed(elapsed, spins)


def _noop(*_args) -> None:
    pass


def sim_events() -> float:
    sim = Simulator()

    def batch():
        for i in range(1000):
            sim.call_after(i * 1e-7, _noop)
        sim.run()

    return _rate(batch, 1000)


def sim_far_events() -> float:
    """10k outstanding timers that re-arm themselves: the rack regime."""
    sim = Simulator()

    def rearm():
        sim.call_after(0.001, rearm)

    for i in range(10_000):
        sim.call_after(0.001 + i * 1e-7, rearm)
    return _rate(lambda: sim.run(max_events=5000), 5000)


def _cache(size: int = 1 << 20) -> HostCache:
    config = OasisConfig()
    return HostCache(CXLMemoryPool(config.cxl, size=size), "micro",
                     timings=config.cxl.timings)


def mem_load_hit() -> float:
    cache = _cache()
    cache.load(0, 8)

    def batch():
        load = cache.load
        for _ in range(1000):
            load(0, 8)

    return _rate(batch, 1000)


def mem_miss_fill() -> float:
    cache = _cache()

    def batch():
        for _ in range(500):
            cache.clflush(0)
            cache.load(0, 64)

    return _rate(batch, 500)


def mem_store_clwb() -> float:
    cache, line = _cache(), bytes(64)

    def batch():
        for _ in range(500):
            cache.store(0, line)
            cache.clwb(0)

    return _rate(batch, 500)


def mem_range4k() -> float:
    """One 4 KiB buffer through the cache: store, write back, drop, reload."""
    cache, block = _cache(), bytes(4096)

    def batch():
        for _ in range(20):
            cache.store(0, block)
            cache.clwb_range(0, 4096)
            cache.clflush_range(0, 4096)
            cache.load(0, 4096)

    return _rate(batch, 20)


def channel_msgs(message_size: int) -> float:
    """Design 4: ``try_send`` then ``poll`` through two non-coherent caches."""
    config = OasisConfig()
    slots = config.datapath.channel_slots
    ring_bytes = RingLayout.required_bytes(slots, message_size)
    pool = CXLMemoryPool(config.cxl, size=ring_bytes)
    layout = RingLayout(Region(0, ring_bytes, "micro-ring"), slots,
                        message_size)
    timings = config.cxl.timings
    sender = ChannelSender(layout, HostCache(pool, "tx", timings=timings))
    receiver = make_receiver(
        "invalidate-prefetched", layout, HostCache(pool, "rx", timings=timings),
        prefetch_depth=config.datapath.prefetch_depth)
    payload = bytes([1]) + bytes(message_size - 1)

    def batch():
        for _ in range(256):
            sent, _cost = sender.try_send(payload)
            if not sent:
                raise RuntimeError("micro channel ring full")
        sender.flush()
        got = 0
        while got < 256:
            message, _cost = receiver.poll()
            if message is not None:
                got += 1

    return _rate(batch, 256)


def pcie_ring_ops() -> float:
    ring = DescriptorRing(256)

    def batch():
        for i in range(128):
            ring.post(i)
        for _ in range(128):
            ring.pop()

    return _rate(batch, 256)


def net_forward() -> float:
    sim = Simulator()
    switch = LearningSwitch(sim)
    ports = [switch.new_port(), switch.new_port()]
    for port in ports:
        port.attach(_noop)
    a, b = make_mac(1), make_mac(2)
    there = Frame(dst_mac=b, src_mac=a, src_ip=make_ip(10, 0, 0, 1),
                  dst_ip=make_ip(10, 0, 0, 2), wire_size=256)
    back = Frame(dst_mac=a, src_mac=b, src_ip=make_ip(10, 0, 0, 2),
                 dst_ip=make_ip(10, 0, 0, 1), wire_size=256)
    switch.forward(back, in_port=1)     # learn both MACs
    switch.forward(there, in_port=0)
    sim.run()

    def batch():
        for _ in range(128):
            switch.forward(there, in_port=0)
            switch.forward(back, in_port=1)
        sim.run()

    return _rate(batch, 256)


def overload_admit() -> float:
    queue = AdmissionQueue()

    def batch():
        for i in range(500):
            queue.push(i * 1e-6, i)
            queue.pop(i * 1e-6)

    return _rate(batch, 500)


def overload_wfq() -> float:
    tenants = {"mc": TenantSpec(weight=4.0), "web": TenantSpec(weight=2.0),
               "bg": TenantSpec(weight=1.0)}
    wfq = WeightedFairScheduler(tenants=tenants)
    names = tuple(tenants)

    def batch():
        for i in range(500):
            wfq.push(i * 1e-6, i, tenant=names[i % 3])
            wfq.pop(i * 1e-6)

    return _rate(batch, 500)


def obs_observe() -> float:
    histogram = MetricsRegistry().histogram("micro_us")

    def batch():
        observe = histogram.observe
        for i in range(1000):
            observe(9.0 + (i & 7))
        del histogram.observations[:]   # keep_raw list: bound the memory

    return _rate(batch, 1000)


def obs_snapshot_ms() -> float:
    """One registry snapshot of the canonical two-host echo pod, in ms."""
    pod, _inst, _endpoint, _nic = build_echo_pod("oasis", remote=True)
    per_s = _rate(lambda: pod.metrics.snapshot(), 1)
    return 1e3 / per_s


def allocator_place() -> float:
    """Unreplicated place + release on a two-host pod."""
    pod = CXLPod()
    h0, h1 = pod.add_host(), pod.add_host()
    pod.add_nic(h0)
    pod.add_nic(h1)
    ip = make_ip(10, 2, 0, 1)

    def batch():
        for _ in range(100):
            pod.allocator.place_instance(ip, h1.name, 0.2)
            pod.allocator.release_instance(ip, 0.2)
        pod.run(0.0001)     # deliver the queued notifications

    return _rate(batch, 100)


def run_all() -> dict:
    return {
        "sim.micro_events_per_s": sim_events(),
        "sim.micro_far_events_per_s": sim_far_events(),
        "mem.micro_load_hit_per_s": mem_load_hit(),
        "mem.micro_miss_fill_per_s": mem_miss_fill(),
        "mem.micro_store_clwb_per_s": mem_store_clwb(),
        "mem.micro_range4k_per_s": mem_range4k(),
        "channel.micro_msgs16_per_s": channel_msgs(16),
        "channel.micro_msgs64_per_s": channel_msgs(64),
        "pcie.micro_ring_ops_per_s": pcie_ring_ops(),
        "net.micro_forward_per_s": net_forward(),
        "overload.micro_admit_per_s": overload_admit(),
        "overload.micro_wfq_per_s": overload_wfq(),
        "obs.micro_observe_per_s": obs_observe(),
        "obs.micro_snapshot_ms": obs_snapshot_ms(),
        "core.allocator.micro_place_per_s": allocator_place(),
    }
