"""Tests for the Raft RPC transport, and the allocator's real snapshot
carried through it as JSON."""

import json

import pytest

from repro.core.raft.node import RaftNode
from repro.core.raft.rpc import RPC_LATENCY_S, DirectTransport
from repro.sim.rng import Stream


class TestDirectTransport:
    def test_delivery_with_latency(self, sim):
        transport = DirectTransport(sim)
        got = []
        transport.register("b", lambda src, m: got.append((sim.now, src, m)))
        transport.send("a", "b", {"x": 1})
        sim.run_all()
        assert got == [(RPC_LATENCY_S, "a", {"x": 1})]

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


class TestControlStateSnapshot:
    @staticmethod
    def _cluster(sim):
        """Three replicas whose every message crosses the transport as JSON,
        as a wire would carry it."""
        transport = DirectTransport(sim)
        ids = ["r0", "r1", "r2"]
        nodes = [RaftNode(sim, node_id, ids, transport,
                          rng=Stream(k))
                 for k, node_id in enumerate(ids)]
        for node in nodes:
            transport.register(node.node_id, lambda src, m, node=node:
                               node._on_message(src, json.loads(json.dumps(m))))
        return transport, nodes

    def test_install_snapshot_rebuilds_control_state(self, sim, monkeypatch):
        """A replica that was down while the leader compacted is reseeded by
        one ``install_snapshot`` carried as JSON: the real ``ControlState``
        snapshot (devices, leases, dedup window and mark) comes out the far
        side able to rebuild an identical machine."""
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
