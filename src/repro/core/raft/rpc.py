"""The Raft RPC transport.

Raft RPC latency is an input of the model: the paper (§3.5) sends the
allocator's RPCs over the message channels, but here every message is
delivered point to point after :data:`RPC_LATENCY_S`.  Carrying them over
simulated channels in 64 B fragments cost ~16x the host time per committed
command (DESIGN.md, "Raft-replicated allocator").
"""

from __future__ import annotations

from typing import Callable, Dict

from ...sim.core import Simulator, USEC

__all__ = ["DirectTransport", "RPC_LATENCY_S"]

#: One-way delay of a Raft RPC between two replicas of a pod.
RPC_LATENCY_S = 5.0 * USEC


class DirectTransport:
    """In-pod message delivery after :data:`RPC_LATENCY_S`."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nodes: Dict[str, Callable[[str, dict], None]] = {}
        self._partitioned: set = set()
        self.messages_sent = 0

    def register(self, node_id: str, deliver: Callable[[str, dict], None]) -> None:
        self._nodes[node_id] = deliver

    def partition(self, node_id: str) -> None:
        """Isolate a node (for leader-failure tests)."""
        self._partitioned.add(node_id)

    def heal(self, node_id: str) -> None:
        self._partitioned.discard(node_id)

    def send(self, src: str, dst: str, message: dict) -> None:
        if src in self._partitioned or dst in self._partitioned:
            return
        deliver = self._nodes.get(dst)
        if deliver is None:
            return
        self.messages_sent += 1
        self.sim.schedule(RPC_LATENCY_S, deliver, src, message)
