"""Tests for the Raft consensus substrate."""

import pytest

from repro.core.raft.log import LogEntry, RaftLog
from repro.core.raft.node import (CANDIDATE, COMPACT_AFTER, FOLLOWER, LEADER,
                                  RaftNode)
from repro.core.raft.rpc import DirectTransport
from repro.sim.core import MSEC, Simulator
from repro.sim.rng import Stream


def build_cluster(sim, n=3, seed=0):
    transport = DirectTransport(sim)
    ids = [f"n{i}" for i in range(n)]
    applied = {node_id: [] for node_id in ids}
    nodes = []
    for i, node_id in enumerate(ids):
        node = RaftNode(
            sim, node_id, ids, transport,
            apply_cb=lambda idx, cmd, nid=node_id: applied[nid].append((idx, cmd)),
            rng=Stream(seed * 100 + i),
        )
        nodes.append(node)
    for node in nodes:
        node.start()
    return transport, nodes, applied


def build_snapshotting_cluster(sim, n=3):
    """A cluster whose state machine is the list of applied commands, with
    the snapshot/restore pair that lets a node compact its log; ``seen``
    counts the message types delivered to each node while it was up."""
    transport, nodes, _ = build_cluster(sim, n)
    machines = {node.node_id: [] for node in nodes}
    seen = {node.node_id: {} for node in nodes}
    for node in nodes:
        machine = machines[node.node_id]
        node.apply_cb = lambda idx, cmd, machine=machine: machine.append(cmd)
        node.snapshot_cb = lambda machine=machine: list(machine)
        node.restore_cb = lambda snap, machine=machine: machine.__setitem__(
            slice(None), snap)
    for node in nodes:
        def deliver(src, message, node=node, kinds=seen[node.node_id]):
            if node.alive:
                kinds[message["type"]] = kinds.get(message["type"], 0) + 1
            node._on_message(src, message)
        transport.register(node.node_id, deliver)
    return transport, nodes, machines, seen


def leader_of(nodes):
    leaders = [n for n in nodes if n.is_leader]
    return leaders[0] if len(leaders) == 1 else None


class TestRaftLog:
    def test_append_and_terms(self):
        log = RaftLog()
        log.append(LogEntry(1, "a"))
        log.append(LogEntry(2, "b"))
        assert log.last_index == 2
        assert log.last_term == 2
        assert log.term_at(1) == 1
        assert log.term_at(0) == 0

    def test_matches_consistency_check(self):
        log = RaftLog()
        log.append(LogEntry(1, "a"))
        assert log.matches(0, 0)
        assert log.matches(1, 1)
        assert not log.matches(1, 2)
        assert not log.matches(5, 1)

    def test_merge_appends_new_entries(self):
        log = RaftLog()
        log.merge(0, [LogEntry(1, "a"), LogEntry(1, "b")])
        assert log.last_index == 2

    def test_merge_truncates_conflicts(self):
        log = RaftLog()
        log.merge(0, [LogEntry(1, "a"), LogEntry(1, "b"), LogEntry(1, "c")])
        log.merge(1, [LogEntry(2, "B")])
        assert log.last_index == 2
        assert log.entry(2).command == "B"
        assert log.entry(2).term == 2

    def test_merge_idempotent(self):
        log = RaftLog()
        entries = [LogEntry(1, "a"), LogEntry(1, "b")]
        log.merge(0, entries)
        log.merge(0, entries)
        assert log.last_index == 2

    def test_up_to_date(self):
        log = RaftLog()
        log.append(LogEntry(2, "a"))
        assert log.up_to_date(1, 3)        # higher term wins
        assert log.up_to_date(1, 2)        # same term, same length
        assert log.up_to_date(2, 2)        # same term, longer
        assert not log.up_to_date(5, 1)    # lower term loses


class TestRaftLogCompaction:
    @staticmethod
    def _log(terms, base=(0, 0)):
        log = RaftLog(*base)
        for i, term in enumerate(terms):
            log.append(LogEntry(term, f"e{log.first_index + i}"))
        return log

    def test_compact_answers_at_the_base_and_fails_below_it(self):
        log = self._log([1, 1, 2, 2, 3])
        log.compact(3)
        assert (log.base_index, log.base_term, log.first_index) == (3, 2, 4)
        assert (len(log), log.last_index, log.last_term) == (2, 5, 3)
        assert log.term_at(3) == 2 and log.term_at(4) == 2
        assert log.matches(3, 2) and not log.matches(3, 1)
        assert log.entry(5).command == "e5"
        assert [e.command for e in log.entries_from(4)] == ["e4", "e5"]
        for ask in (lambda: log.term_at(2), lambda: log.entry(3),
                    lambda: log.entries_from(3), lambda: log.matches(2, 1),
                    lambda: log.merge(1, [LogEntry(1, "x")]),
                    lambda: log.compact(2)):
            with pytest.raises(IndexError):
                ask()

    def test_merge_above_the_base(self):
        log = self._log([3, 3], base=(10, 2))
        log.merge(10, [LogEntry(3, "e11"), LogEntry(4, "B"), LogEntry(4, "C")])
        assert log.last_index == 13
        assert [log.term_at(i) for i in range(10, 14)] == [2, 3, 4, 4]
        assert log.entry(12).command == "B"

    def test_log_ending_exactly_at_its_base_votes_from_the_base(self):
        """A candidate or voter that has compacted everything it holds."""
        log = self._log([], base=(10, 3))
        assert (log.last_index, log.last_term) == (10, 3)
        assert log.up_to_date(10, 3)        # the same point
        assert log.up_to_date(11, 3)        # same term, longer
        assert not log.up_to_date(9, 3)     # same term, shorter
        assert log.up_to_date(4, 4)         # higher term wins
        assert not log.up_to_date(50, 2)    # lower term loses
        assert log.matches(10, 3) and not log.matches(11, 3)

    def test_install_keeps_an_agreeing_suffix_only(self):
        log = self._log([1, 1, 2, 2])
        log.install(3, 2)                   # we hold (3, term 2): keep e4
        assert (log.base_index, log.base_term, len(log)) == (3, 2, 1)
        assert log.entry(4).command == "e4"
        log = self._log([1, 1, 2, 2])
        log.install(3, 5)                   # our entry 3 is from a dead term
        assert (log.base_index, log.base_term, len(log)) == (3, 5, 0)
        log = self._log([1, 1])
        log.install(7, 2)                   # beyond what we hold
        assert (log.base_index, log.last_index, log.last_term) == (7, 7, 2)


class TestElection:
    def test_a_node_needs_an_explicit_rng(self, sim):
        # A default drawn from hash(node_id) would move with PYTHONHASHSEED:
        # election timeouts come only from a stream the caller seeded.
        with pytest.raises(TypeError):
            RaftNode(sim, "n0", ["n0"], DirectTransport(sim))

    def test_exactly_one_leader_elected(self, sim):
        _, nodes, _ = build_cluster(sim)
        sim.run(until=2.0)
        assert leader_of(nodes) is not None
        assert sum(n.is_leader for n in nodes) == 1

    def test_leader_crash_triggers_reelection(self, sim):
        _, nodes, _ = build_cluster(sim)
        sim.run(until=2.0)
        old = leader_of(nodes)
        old.crash()
        sim.run(until=4.0)
        alive = [n for n in nodes if n.alive]
        new = leader_of(alive)
        assert new is not None and new is not old
        assert new.current_term > old.current_term

    def test_crashed_leader_rejoins_as_follower(self, sim):
        _, nodes, _ = build_cluster(sim)
        sim.run(until=2.0)
        old = leader_of(nodes)
        old.crash()
        sim.run(until=4.0)
        old.restart()
        sim.run(until=6.0)
        assert sum(n.is_leader for n in nodes) == 1
        assert old.state == FOLLOWER

    def test_partitioned_node_cannot_win(self, sim):
        transport, nodes, _ = build_cluster(sim)
        sim.run(until=2.0)
        follower = next(n for n in nodes if not n.is_leader)
        transport.partition(follower.node_id)
        sim.run(until=6.0)
        # It keeps electing itself but never gets a majority.
        assert not follower.is_leader
        healthy = [n for n in nodes if n is not follower]
        assert sum(n.is_leader for n in healthy) == 1


class TestReplication:
    def test_committed_command_applies_everywhere(self, sim):
        _, nodes, applied = build_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        index = leader.propose({"op": "noop"})
        assert index == 1
        sim.run(until=3.0)
        for node_id, entries in applied.items():
            assert entries == [(1, {"op": "noop"})]

    def test_propose_on_follower_rejected(self, sim):
        _, nodes, _ = build_cluster(sim)
        sim.run(until=2.0)
        follower = next(n for n in nodes if not n.is_leader)
        assert follower.propose("x") is None

    def test_many_commands_apply_in_order(self, sim):
        _, nodes, applied = build_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        for i in range(20):
            leader.propose(i)
        sim.run(until=4.0)
        for entries in applied.values():
            assert [cmd for _, cmd in entries] == list(range(20))

    def test_command_survives_leader_change(self, sim):
        _, nodes, applied = build_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        leader.propose("before-crash")
        sim.run(until=2.5)   # replicated + committed
        leader.crash()
        sim.run(until=5.0)
        new_leader = leader_of([n for n in nodes if n.alive])
        new_leader.propose("after-crash")
        sim.run(until=7.0)
        for node in nodes:
            if node.alive:
                commands = [node.log.entry(i).command
                            for i in range(node.log.first_index,
                                           node.commit_index + 1)]
                assert "before-crash" in commands
                assert "after-crash" in commands

    def test_lagging_follower_catches_up(self, sim):
        transport, nodes, applied = build_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        follower = next(n for n in nodes if not n.is_leader)
        transport.partition(follower.node_id)
        for i in range(5):
            leader.propose(i)
        sim.run(until=3.0)
        transport.heal(follower.node_id)
        sim.run(until=6.0)
        assert follower.commit_index >= 5
        assert [cmd for _, cmd in applied[follower.node_id]][:5] == list(range(5))

    def test_single_node_cluster_commits_immediately(self, sim):
        transport = DirectTransport(sim)
        applied = []
        node = RaftNode(sim, "solo", ["solo"], transport,
                        apply_cb=lambda i, c: applied.append(c),
                        rng=Stream(0))
        node.start()
        sim.run(until=1.0)
        assert node.is_leader
        node.propose("only")
        sim.run(until=1.1)
        assert applied == ["only"]



class TestCompaction:
    """Log compaction and snapshot install (Raft §7)."""

    def test_log_stays_bounded_and_applies_each_entry_once(self, sim):
        _, nodes, machines, seen = build_snapshotting_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        total = 3 * COMPACT_AFTER + 17
        for i in range(total):
            leader.propose(i)
            sim.run(until=sim.now + 50e-6)
        sim.run(until=sim.now + 0.2)
        for node in nodes:
            assert machines[node.node_id] == list(range(total))
            assert node.log.last_index == total
            assert len(node.log) < COMPACT_AFTER
            assert node.log.base_index == 3 * COMPACT_AFTER
            assert node.snapshot == list(range(3 * COMPACT_AFTER))
            # nobody fell behind, so nobody was sent a snapshot
            assert "install_snapshot" not in seen[node.node_id]

    def test_partitioned_follower_catches_up_through_one_snapshot(self, sim):
        transport, nodes, machines, seen = build_snapshotting_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        follower = next(n for n in nodes if not n.is_leader)
        for i in range(5):
            leader.propose(i)
        sim.run(until=2.1)
        transport.partition(follower.node_id)
        total = COMPACT_AFTER + 40
        for i in range(5, total):
            leader.propose(i)
        sim.run(until=2.2)
        assert leader.log.base_index > leader.match_index[follower.node_id]
        assert follower.is_leader is False and len(machines[follower.node_id]) == 5
        transport.heal(follower.node_id)
        sim.run(until=6.0)
        assert leader_of(nodes) is not None
        assert seen[follower.node_id]["install_snapshot"] == 1
        assert machines[follower.node_id] == list(range(total))
        assert follower.last_applied == total
        assert follower.log.base_index >= COMPACT_AFTER

    def test_restarted_ex_leader_with_a_stale_log_is_overwritten(self, sim):
        transport, nodes, machines, seen = build_snapshotting_cluster(sim)
        sim.run(until=2.0)
        old = leader_of(nodes)
        old.propose("committed")
        sim.run(until=2.1)
        transport.partition(old.node_id)
        old.propose("stale-1")          # appended locally, never replicated
        old.propose("stale-2")
        old.crash()
        transport.heal(old.node_id)
        sim.run(until=4.0)
        new = leader_of([n for n in nodes if n.alive])
        assert new is not None and new is not old
        for i in range(COMPACT_AFTER + 3):
            new.propose(i)
        sim.run(until=4.2)
        assert new.log.base_index > old.log.last_index
        old.restart()
        sim.run(until=7.0)
        assert seen[old.node_id]["install_snapshot"] == 1
        want = ["committed", *range(COMPACT_AFTER + 3)]
        assert machines[old.node_id] == want == machines[new.node_id]
        assert old.log.last_index == new.log.last_index
        assert old.state == FOLLOWER

    def test_partitioned_minority_neither_commits_nor_compacts(self, sim):
        transport, nodes, machines, _ = build_snapshotting_cluster(sim)
        sim.run(until=2.0)
        old = leader_of(nodes)
        for i in range(10):
            old.propose(i)
        sim.run(until=2.1)
        transport.partition(old.node_id)
        for i in range(2 * COMPACT_AFTER):
            old.propose(("minority", i))   # it still believes it leads
        sim.run(until=4.0)
        assert old.commit_index == 10 and old.log.base_index == 0
        assert len(old.log) == 10 + 2 * COMPACT_AFTER
        majority = [n for n in nodes if n is not old]
        new = leader_of(majority)
        for i in range(10, COMPACT_AFTER + 20):
            new.propose(i)
        sim.run(until=4.2)
        assert all(n.log.base_index <= n.commit_index for n in nodes)
        assert old.log.base_index <= min(n.commit_index for n in majority)
        transport.heal(old.node_id)
        sim.run(until=8.0)
        want = list(range(COMPACT_AFTER + 20))
        assert all(machines[n.node_id] == want for n in nodes)

    def test_append_that_starts_below_the_base_is_trimmed(self, sim):
        """A delayed append whose prev_index predates the follower's own
        compaction: the committed prefix is skipped, the rest merged."""
        _, nodes, machines, _ = build_snapshotting_cluster(sim)
        sim.run(until=2.0)
        leader = leader_of(nodes)
        follower = next(n for n in nodes if not n.is_leader)
        for i in range(COMPACT_AFTER + 2):
            leader.propose(i)
            sim.run(until=sim.now + 50e-6)
        sim.run(until=sim.now + 0.1)
        base = follower.log.base_index
        assert base == COMPACT_AFTER
        replies = []
        follower._send = lambda dst, message: replies.append(message)
        entries = [[leader.current_term, i] for i in range(base - 3, base + 3)]
        follower._on_message(leader.node_id, {
            "type": "append_entries", "term": leader.current_term,
            "leader": leader.node_id, "prev_index": base - 3,
            "prev_term": leader.current_term, "entries": entries,
            "leader_commit": base + 3})
        assert replies[-1]["success"] and replies[-1]["match_index"] == base + 3
        assert machines[follower.node_id] == list(range(base + 3))
