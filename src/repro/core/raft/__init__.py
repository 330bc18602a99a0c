"""Raft consensus substrate for the replicated pod-wide allocator.

Election, replication, and (§7) log compaction: a node keeps a state-machine
snapshot plus the entries applied since, not every entry ever committed, and
a peer that falls behind the leader's log base is sent the snapshot.
"""

from .log import LogEntry, RaftLog
from .node import CANDIDATE, FOLLOWER, LEADER, RaftNode
from .rpc import DirectTransport

__all__ = [
    "RaftNode",
    "RaftLog",
    "LogEntry",
    "FOLLOWER",
    "CANDIDATE",
    "LEADER",
    "DirectTransport",
]
