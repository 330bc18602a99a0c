"""Safety properties of the channel protocol and simulation determinism."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.designs import make_receiver
from repro.channel.protocol import ChannelSender
from repro.channel.ring import RingLayout
from repro.core.pod import CXLPod
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import Region
from repro.net.packet import make_ip
from repro.sim.rng import Stream
from repro.workloads.echo import EchoClient, EchoServer

from .reference_ring import send_one, slot_addr


class TestChannelSafety:
    """No duplication, no corruption, no reordering -- under any
    interleaving of sends, polls, flushes and spurious invalidations."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("send"), st.integers(1, 4)),
                st.tuples(st.just("poll"), st.integers(1, 8)),
                st.tuples(st.just("flush"), st.just(0)),
                st.tuples(st.just("spurious_invalidate"), st.integers(0, 7)),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exactly_once_in_order_delivery(self, ops):
        pool = CXLMemoryPool(size=1 << 20)
        layout = RingLayout(Region(0, RingLayout.required_bytes(32, 16)),
                            32, 16)
        sender = ChannelSender(layout, HostCache(pool, "s"))
        receiver = make_receiver("invalidate-prefetched", layout,
                                 HostCache(pool, "r"), counter_batch=4)
        sent, received = [], []
        for op, arg in ops:
            if op == "send":
                for _ in range(arg):
                    seq = len(sent)
                    payload = bytes([1]) + seq.to_bytes(8, "little") + bytes(7)
                    ok, _ = sender.try_send(payload)
                    if ok:
                        sent.append(payload)
            elif op == "poll":
                for _ in range(arg):
                    payload, _ = receiver.poll()
                    if payload is not None:
                        received.append(payload)
            elif op == "flush":
                sender.flush()
            elif op == "spurious_invalidate":
                # A receiver may invalidate any ring line at any time without
                # hurting safety (only performance).
                receiver.cache.clflush(layout.region.base + arg * 64)
        sender.flush()
        for _ in range(200):
            payload, _ = receiver.poll()
            if payload is not None:
                received.append(payload)
            elif len(received) == len(sent):
                break
        assert received == sent

    def test_spurious_sender_writebacks_harmless(self):
        """Extra CLWBs of ring lines never corrupt delivery."""
        pool = CXLMemoryPool(size=1 << 20)
        layout = RingLayout(Region(0, RingLayout.required_bytes(32, 16)),
                            32, 16)
        sender = ChannelSender(layout, HostCache(pool, "s"))
        receiver = make_receiver("invalidate-prefetched", layout,
                                 HostCache(pool, "r"), counter_batch=4)
        got = []
        for i in range(64):
            payload = bytes([1]) + i.to_bytes(8, "little") + bytes(7)
            send_one(sender, payload)
            sender.cache.clwb(slot_addr(layout, i))      # spurious
            for _ in range(6):
                item, _ = receiver.poll()
                if item is not None:
                    got.append(item)
                    break
        assert len(got) == 64


class TestDeterminism:
    def _run_once(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=make_ip(10, 0, 0, 1), nic=nic)
        EchoServer(pod.sim, inst)
        client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
        ec = EchoClient(pod.sim, client, inst.ip, rate_pps=20_000,
                        rng=Stream(5), poisson=True)
        ec.start(0.02)
        pod.run(0.05)
        pod.stop()
        return (ec.stats.received, tuple(ec.stats.latencies_us[:50]),
                pod.sim.processed_events)

    def test_identical_runs_bit_identical(self):
        """The whole stack is deterministic given seeds: same packet counts,
        same latencies, same event count."""
        assert self._run_once() == self._run_once()


class TestEventBudget:
    def test_events_per_packet_bounded(self):
        """Performance regression guard: the DES must stay O(messages) --
        roughly a fixed event budget per echoed packet, with no idle spin."""
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic = pod.add_nic(h0)
        inst = pod.add_instance(h1, ip=make_ip(10, 0, 0, 1), nic=nic)
        EchoServer(pod.sim, inst)
        client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
        ec = EchoClient(pod.sim, client, inst.ip, rate_pps=10_000)
        ec.start(0.1)
        pod.run(0.15)
        pod.stop()
        events_per_packet = pod.sim.processed_events / ec.stats.received
        assert events_per_packet < 18

    def test_idle_pod_consumes_almost_no_events(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        pod.add_instance(h1, ip=make_ip(10, 0, 0, 1))
        pod.run(1.0)   # one simulated second, zero traffic
        pod.stop()
        # Only periodic control-plane work (link monitor + telemetry).
        assert pod.sim.processed_events < 500
