"""Raft consensus (Ongaro & Ousterhout, ATC '14).

The pod-wide allocator replicates its state machine with Raft (§3.5).  This
is a complete single-decree-free implementation: randomized election
timeouts, leader election with the up-to-date check, log replication with
conflict truncation, commitment only of current-term entries, state machine
application callbacks, and log compaction with snapshot install (§7).
Messages travel over a pluggable transport (see :mod:`repro.core.raft.rpc`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ...obs.trace import NULL_TRACER
from ...sim.core import MSEC, Simulator, Timer
from .log import LogEntry, RaftLog

__all__ = ["RaftNode", "FOLLOWER", "CANDIDATE", "LEADER", "COMPACT_AFTER"]

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Applied entries a node lets pile up past its log base before it snapshots
#: the state machine and drops them: enough to amortise an O(live state)
#: snapshot (a few hundred device and lease rows) to about a row per entry,
#: few enough that a node never retains over ~0.3 MiB of applied commands.
COMPACT_AFTER = 256

#: How often a leader sends appends to every follower when nothing else does.
HEARTBEAT_S = 50.0 * MSEC


class RaftNode:
    """One Raft peer."""

    tracer = NULL_TRACER

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        peers: List[str],
        transport,
        apply_cb: Optional[Callable[[int, Any], None]] = None,
        election_timeout_ms: tuple = (150.0, 300.0),
        *,
        rng,
    ):
        self.sim = sim
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.transport = transport
        self.apply_cb = apply_cb
        # The state machine's half of compaction, assigned by its owner: its
        # JSON-able state as of ``last_applied``, and back.  A node without
        # them keeps its whole log.
        self.snapshot_cb: Optional[Callable[[], Any]] = None
        self.restore_cb: Optional[Callable[[Any], None]] = None
        self.election_timeout_ms = election_timeout_ms
        self.rng = rng

        self.state = FOLLOWER
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()
        self.snapshot: Any = None     # state machine as of log.base_index
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: Optional[str] = None
        self._votes: set = set()
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        # Lazy (DESIGN §3b): an append moves the deadline, not a queue entry.
        self._election_timer = Timer(sim, self._on_election_timeout)
        self._heartbeat_timer = Timer(sim, self._on_heartbeat)
        self.alive = True

        transport.register(node_id, self._on_message)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._reset_election_timer()

    def crash(self) -> None:
        """Stop participating (volatile state survives for restart tests)."""
        self.alive = False
        self._election_timer.clear()
        self._heartbeat_timer.clear()

    def restart(self) -> None:
        self.alive = True
        self.state = FOLLOWER
        self.leader_id = None
        self._reset_election_timer()

    # -- timers ------------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        lo, hi = self.election_timeout_ms
        self._election_timer.set(self.rng.uniform(lo, hi) * MSEC)

    def _on_election_timeout(self) -> None:
        if not self.alive or self.state == LEADER:
            return
        self._start_election()

    def _on_heartbeat(self) -> None:
        if not self.alive or self.state != LEADER:
            return
        self._broadcast_append()
        self._heartbeat_timer.set(HEARTBEAT_S)

    # -- elections ----------------------------------------------------------------

    def _start_election(self) -> None:
        self.state = CANDIDATE
        self.current_term += 1
        self.tracer.instant("raft.election", category="raft", track="raft",
                            node=self.node_id, term=self.current_term)
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self.leader_id = None
        self._reset_election_timer()
        for peer in self.peers:
            self._send(peer, {
                "type": "request_vote",
                "term": self.current_term,
                "candidate": self.node_id,
                "last_log_index": self.log.last_index,
                "last_log_term": self.log.last_term,
            })
        self._maybe_win()

    def _maybe_win(self) -> None:
        if self.state != CANDIDATE:
            return
        if len(self._votes) * 2 > len(self.peers) + 1:
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = LEADER
        self.leader_id = self.node_id
        self.tracer.instant("raft.leader", category="raft", track="raft",
                            node=self.node_id, term=self.current_term)
        for peer in self.peers:
            self.next_index[peer] = self.log.last_index + 1
            self.match_index[peer] = 0
        self._election_timer.clear()
        self._on_heartbeat()

    # -- client interface ---------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.alive and self.state == LEADER

    def propose(self, command: Any) -> Optional[int]:
        """Append a command; returns its log index, or None if not leader."""
        if not self.is_leader:
            return None
        index = self.log.append(LogEntry(self.current_term, command))
        self.match_index[self.node_id] = index
        self._broadcast_append()
        if not self.peers:
            self._advance_commit()
        return index

    # -- message handling -----------------------------------------------------------------

    def _send(self, dst: str, message: dict) -> None:
        self.transport.send(self.node_id, dst, message)

    def _on_message(self, src: str, message: dict) -> None:
        if not self.alive:
            return
        term = message.get("term", 0)
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            self._step_down()
        handler = {
            "request_vote": self._on_request_vote,
            "request_vote_reply": self._on_request_vote_reply,
            "append_entries": self._on_append_entries,
            "append_entries_reply": self._on_append_entries_reply,
            "install_snapshot": self._on_install_snapshot,
        }.get(message.get("type"))
        if handler is not None:
            handler(src, message)

    def _step_down(self) -> None:
        if self.state != FOLLOWER:
            self.state = FOLLOWER
            self._heartbeat_timer.clear()
        self._reset_election_timer()

    def _on_request_vote(self, src: str, m: dict) -> None:
        grant = False
        if m["term"] >= self.current_term:
            log_ok = self.log.up_to_date(m["last_log_index"], m["last_log_term"])
            if log_ok and self.voted_for in (None, m["candidate"]):
                grant = True
                self.voted_for = m["candidate"]
                self._reset_election_timer()
        self._send(src, {
            "type": "request_vote_reply",
            "term": self.current_term,
            "granted": grant,
        })

    def _on_request_vote_reply(self, src: str, m: dict) -> None:
        if self.state != CANDIDATE or m["term"] < self.current_term:
            return
        if m.get("granted"):
            self._votes.add(src)
            self._maybe_win()

    def _broadcast_append(self) -> None:
        for peer in self.peers:
            self._send_append(peer)

    def _send_append(self, peer: str) -> None:
        prev_index = self.next_index.get(peer, self.log.last_index + 1) - 1
        if prev_index < self.log.base_index:
            # What this peer needs next is compacted away: the snapshot goes
            # in place of this append (one message for one, same reply).
            self._send(peer, {
                "type": "install_snapshot",
                "term": self.current_term,
                "leader": self.node_id,
                "last_index": self.log.base_index,
                "last_term": self.log.base_term,
                "snapshot": self.snapshot,
            })
            return
        entries = self.log.entries_from(prev_index + 1)
        self._send(peer, {
            "type": "append_entries",
            "term": self.current_term,
            "leader": self.node_id,
            "prev_index": prev_index,
            "prev_term": self.log.term_at(prev_index),
            "entries": [[e.term, e.command] for e in entries],
            "leader_commit": self.commit_index,
        })

    def _follow(self, leader: str) -> None:
        self.leader_id = leader
        if self.state != FOLLOWER:
            self._step_down()
        else:
            self._reset_election_timer()

    def _reply_append(self, dst: str, success: bool, match: int) -> None:
        self._send(dst, {
            "type": "append_entries_reply",
            "term": self.current_term,
            "success": success,
            "match_index": match,
        })

    def _on_append_entries(self, src: str, m: dict) -> None:
        success = False
        match = 0
        if m["term"] >= self.current_term:
            self._follow(m["leader"])
            # Entries at or below our base are committed, hence the same on
            # any leader we would accept: skip them rather than ask the log.
            skip = max(0, self.log.base_index - m["prev_index"])
            if skip or self.log.matches(m["prev_index"], m["prev_term"]):
                entries = [LogEntry(t, c) for t, c in m["entries"][skip:]]
                self.log.merge(m["prev_index"] + skip, entries)
                success = True
                match = m["prev_index"] + len(m["entries"])
                if m["leader_commit"] > self.commit_index:
                    self.commit_index = min(m["leader_commit"], self.log.last_index)
                    self._apply()
        self._reply_append(src, success, match)

    def _on_install_snapshot(self, src: str, m: dict) -> None:
        """Adopt the leader's snapshot unless we have applied past it."""
        success = m["term"] >= self.current_term
        if success:
            self._follow(m["leader"])
            index = m["last_index"]
            if index > self.last_applied:
                if self.restore_cb is not None:
                    self.restore_cb(m["snapshot"])
                self.snapshot = m["snapshot"]
                self.log.install(index, m["last_term"])
                self.commit_index = self.last_applied = index
        self._reply_append(src, success, m["last_index"] if success else 0)

    def _on_append_entries_reply(self, src: str, m: dict) -> None:
        if self.state != LEADER or m["term"] < self.current_term:
            return
        if m["success"]:
            self.match_index[src] = max(self.match_index.get(src, 0), m["match_index"])
            self.next_index[src] = self.match_index[src] + 1
            self._advance_commit()
        else:
            self.next_index[src] = max(1, self.next_index.get(src, 1) - 1)
            self._send_append(src)

    def _advance_commit(self) -> None:
        """Commit the highest index replicated on a majority (current term)."""
        cluster = len(self.peers) + 1
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                break
            replicas = 1 + sum(
                1 for peer in self.peers if self.match_index.get(peer, 0) >= index
            )
            if replicas * 2 > cluster:
                self.commit_index = index
                self._apply()
                break

    def _apply(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry(self.last_applied)
            if self.apply_cb is not None:
                self.apply_cb(self.last_applied, entry.command)
        if (self.snapshot_cb is not None
                and self.last_applied - self.log.base_index >= COMPACT_AFTER):
            self.snapshot = self.snapshot_cb()
            self.log.compact(self.last_applied)
