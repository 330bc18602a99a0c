"""Tests for RPC transports, including RPCs over real 64 B message channels."""

import numpy as np
import pytest

from repro.core.datapath import SharedRegions
from repro.core.raft.node import RaftNode
from repro.core.raft.rpc import FRAGMENT_PAYLOAD, ChannelRpcTransport, DirectTransport
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.sim.core import MSEC, USEC, Simulator


class TestDirectTransport:
    def test_delivery_with_latency(self, sim):
        transport = DirectTransport(sim, latency_us=10.0)
        got = []
        transport.register("b", lambda src, m: got.append((sim.now, src, m)))
        transport.send("a", "b", {"x": 1})
        sim.run_all()
        assert got == [(pytest.approx(10 * USEC), "a", {"x": 1})]

    def test_unknown_destination_dropped(self, sim):
        transport = DirectTransport(sim)
        transport.send("a", "nobody", {})
        sim.run_all()   # no exception

    def test_partition_blocks_both_directions(self, sim):
        transport = DirectTransport(sim)
        got = []
        transport.register("a", lambda s, m: got.append(m))
        transport.register("b", lambda s, m: got.append(m))
        transport.partition("b")
        transport.send("a", "b", {"x": 1})
        transport.send("b", "a", {"x": 2})
        sim.run_all()
        assert got == []
        transport.heal("b")
        transport.send("a", "b", {"x": 3})
        sim.run_all()
        assert got == [{"x": 3}]


def build_channel_transport(sim):
    pool = CXLMemoryPool(size=32 << 20)
    regions = SharedRegions(pool)
    transport = ChannelRpcTransport(sim)
    caches = {name: HostCache(pool, name) for name in ("a", "b")}
    from repro.core.datapath import DoorbellChannel

    for src, dst in (("a", "b"), ("b", "a")):
        layout = regions.alloc_ring(64, f"rpc-{src}-{dst}", slots=256)
        channel = DoorbellChannel(sim, layout, caches[src], caches[dst],
                                  f"rpc-{src}-{dst}", hop_us=1.0)
        transport.add_channel(src, dst, channel)
    return transport


class TestChannelRpcTransport:
    def test_small_message_single_fragment(self, sim):
        transport = build_channel_transport(sim)
        got = []
        transport.register("b", lambda src, m: got.append(m))
        transport.send("a", "b", {"op": "hi"})
        sim.run(until=1 * MSEC)
        assert got == [{"op": "hi"}]
        assert transport.fragments_sent == 1

    def test_large_message_fragments_and_reassembles(self, sim):
        transport = build_channel_transport(sim)
        got = []
        transport.register("b", lambda src, m: got.append(m))
        big = {"data": "x" * (FRAGMENT_PAYLOAD * 5)}
        transport.send("a", "b", big)
        sim.run(until=1 * MSEC)
        assert got == [big]
        assert transport.fragments_sent > 5

    def test_bidirectional(self, sim):
        transport = build_channel_transport(sim)
        got_a, got_b = [], []
        transport.register("a", lambda src, m: got_a.append(m))
        transport.register("b", lambda src, m: got_b.append(m))
        transport.send("a", "b", {"n": 1})
        transport.send("b", "a", {"n": 2})
        sim.run(until=1 * MSEC)
        assert got_b == [{"n": 1}]
        assert got_a == [{"n": 2}]

    def test_interleaved_rpcs_reassemble_independently(self, sim):
        transport = build_channel_transport(sim)
        got = []
        transport.register("b", lambda src, m: got.append(m))
        for i in range(10):
            transport.send("a", "b", {"i": i, "pad": "y" * 100})
        sim.run(until=5 * MSEC)
        assert [m["i"] for m in got] == list(range(10))

    def test_missing_channel_raises(self, sim):
        transport = ChannelRpcTransport(sim)
        from repro.errors import ChannelError

        with pytest.raises(ChannelError):
            transport.send("a", "z", {})


class TestRaftOverChannels:
    @staticmethod
    def _cluster(sim):
        pool = CXLMemoryPool(size=64 << 20)
        regions = SharedRegions(pool)
        transport = ChannelRpcTransport(sim)
        ids = ["r0", "r1", "r2"]
        caches = {i: HostCache(pool, i) for i in ids}
        from repro.core.datapath import DoorbellChannel

        for src in ids:
            for dst in ids:
                if src == dst:
                    continue
                layout = regions.alloc_ring(64, f"{src}-{dst}", slots=512)
                channel = DoorbellChannel(sim, layout, caches[src], caches[dst],
                                          f"{src}-{dst}", hop_us=1.0)
                transport.add_channel(src, dst, channel)
        nodes = [RaftNode(sim, node_id, ids, transport,
                          rng=np.random.default_rng(k))
                 for k, node_id in enumerate(ids)]
        return transport, nodes

    def test_election_and_commit_over_real_channels(self, sim):
        """§3.5: the allocator's Raft RPCs ride Oasis message channels."""
        _, nodes = self._cluster(sim)
        applied = {node.node_id: [] for node in nodes}
        for node in nodes:
            node.apply_cb = (lambda idx, cmd, n=node.node_id:
                             applied[n].append(cmd))
            node.start()
        sim.run(until=2.0)
        leaders = [n for n in nodes if n.is_leader]
        assert len(leaders) == 1
        leaders[0].propose({"op": "failover", "device": "nic0"})
        sim.run(until=3.0)
        for commands in applied.values():
            assert commands == [{"op": "failover", "device": "nic0"}]

    def test_install_snapshot_survives_fragmenting(self, sim, monkeypatch):
        """A replica that was down while the leader compacted is reseeded by
        one ``install_snapshot`` carried as JSON in 64 B fragments: the real
        ``ControlState`` snapshot (devices, leases, dedup window and mark)
        comes out the far side able to rebuild an identical machine."""
        from repro.core.allocator.policy import DeviceState
        from repro.core.control import AllocatorStateMachine, ControlState

        monkeypatch.setattr("repro.core.raft.node.COMPACT_AFTER", 16)
        transport, nodes = self._cluster(sim)
        machines = {}
        for node in nodes:
            state = ControlState(lease_ttl_s=1.0)
            state.add_device(DeviceState("nic0", host="h0", capacity=100.0))
            machine = machines[node.node_id] = AllocatorStateMachine(state)
            node.apply_cb = lambda idx, cmd, m=machine: m.apply(cmd)
            node.snapshot_cb = lambda m=machine: m.state.snapshot()
            node.restore_cb = machine.restore
            node.start()
        sim.run(until=2.0)
        leader = next(n for n in nodes if n.is_leader)
        down = next(n for n in nodes if not n.is_leader)
        down.crash()
        for cid in range(1, 41):
            ip = 0x0A000000 + (cid + 1) // 2
            if cid % 2:         # place, then release all but the last few
                cmd = {"op": "place", "ip": ip, "host": "h0", "device": "nic0",
                       "backup": None, "demand": 0.5, "epoch": cid}
            elif cid <= 34:
                cmd = {"op": "release", "ip": ip, "device": "nic0",
                       "demand": 0.5, "revoke_epoch": cid}
            else:
                continue
            leader.propose({**cmd, "cid": cid, "lwm": cid, "now": sim.now})
            sim.run(until=sim.now + 1e-3)
        assert leader.log.base_index >= 16 > down.last_applied
        sent_before = transport.messages_sent
        down.restart()
        sim.run(until=sim.now + 1.0)
        assert transport.messages_sent > sent_before
        assert down.log.base_index >= 16        # came from the snapshot
        assert down.last_applied == leader.last_applied
        want = machines[leader.node_id].state
        got = machines[down.node_id].state
        assert got.signature() == want.signature()
        nics = got.tables["nic"]
        assert len(nics.assignments) == 3
        assert nics.hosts == want.tables["nic"].hosts
        assert (got.applied_mark, got.applied_cids) == (
            want.applied_mark, want.applied_cids)
        assert nics.devices["nic0"].allocated == pytest.approx(1.5)
