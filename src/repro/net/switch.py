"""Learning Ethernet switch (the Arista 7060X stand-in from §5).

The switch provides exactly the behaviours Oasis's failover depends on
(§3.3.3):

* **MAC learning** -- the MAC-to-port table is updated from the source MAC of
  every forwarded frame, which is how the backup NIC "borrows" a failed NIC's
  MAC address;
* **per-port administrative disable** -- the paper's failure injection
  ("we disable the switch port connected to the NIC"); a disabled port drops
  frames in both directions and drops the attached device's link.

Each port models serialization at its line rate plus a fixed store-and-forward
latency, so congestion on a shared 100 Gbit port is visible in end-to-end
latency (Figure 12's multiplexing interference).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.core import Simulator, USEC
from .packet import BROADCAST_MAC, Frame

__all__ = ["LearningSwitch", "SwitchPort"]


class SwitchPort:
    """One switch port with an attached endpoint (a NIC or a load driver)."""

    def __init__(
        self,
        switch: "LearningSwitch",
        port_id: int,
        rate_bytes_per_sec: float,
        latency_s: float,
    ):
        self.switch = switch
        self.port_id = port_id
        self.rate = rate_bytes_per_sec
        self.latency = latency_s
        self.enabled = True
        self._deliver: Optional[Callable[[Frame], None]] = None
        self._link_listeners: list[Callable[[bool], None]] = []
        self._busy_until = 0.0
        self.tx_frames = 0
        self.tx_bytes = 0
        self.dropped_frames = 0

    def attach(self, deliver: Callable[[Frame], None]) -> None:
        """Register the endpoint's frame-delivery callback."""
        self._deliver = deliver

    def on_link_change(self, listener: Callable[[bool], None]) -> None:
        """Subscribe to link up/down transitions (used by NIC link monitor)."""
        self._link_listeners.append(listener)

    # -- egress: switch -> endpoint ------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Queue a frame for transmission to the attached endpoint."""
        if not self.enabled or self._deliver is None:
            self.dropped_frames += 1
            return
        sim = self.switch.sim
        if frame.meta:
            flow = frame.meta.get("flow")
            if flow is not None:
                flow.stage("switch.wire")
        start = max(sim.now, self._busy_until)
        serialize = frame.wire_size / self.rate
        self._busy_until = start + serialize
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size
        sim.at(self._busy_until + self.latency, self._deliver_if_up, frame)

    def _deliver_if_up(self, frame: Frame) -> None:
        if self.enabled and self._deliver is not None:
            self._deliver(frame)
        else:
            self.dropped_frames += 1

    # -- ingress: endpoint -> switch ---------------------------------------------

    def receive(self, frame: Frame) -> None:
        """Endpoint hands a frame to the switch through this port."""
        if not self.enabled:
            self.dropped_frames += 1
            return
        self.switch.forward(frame, in_port=self.port_id)

    # -- admin -------------------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        if enabled == self.enabled:
            return
        self.enabled = enabled
        for listener in self._link_listeners:
            listener(enabled)


class LearningSwitch:
    """Store-and-forward switch with a learned MAC table."""

    def __init__(
        self,
        sim: Simulator,
        port_rate_gbps: float = 100.0,
        port_latency_us: float = 0.5,
        name: str = "tor",
    ):
        self.sim = sim
        self.name = name
        self.port_rate = port_rate_gbps * 1e9 / 8.0
        self.port_latency = port_latency_us * USEC
        self.ports: Dict[int, SwitchPort] = {}
        self.mac_table: Dict[int, int] = {}
        self.flooded_frames = 0
        self.forwarded_frames = 0
        # Fault injection (repro.faults): silently drop / duplicate the next
        # N forwarded frames (a misbehaving fabric, not a disabled port).
        self.fault_dropped = 0
        self.fault_duplicated = 0
        self._drop_next = 0
        self._dup_next = 0

    def new_port(self, rate_gbps: Optional[float] = None) -> SwitchPort:
        port_id = len(self.ports)
        port = SwitchPort(
            self,
            port_id,
            (rate_gbps * 1e9 / 8.0) if rate_gbps else self.port_rate,
            self.port_latency,
        )
        self.ports[port_id] = port
        return port

    def inject_drop(self, count: int = 1) -> None:
        """Arm a fabric fault: silently drop the next ``count`` frames."""
        self._drop_next += count

    def inject_duplicate(self, count: int = 1) -> None:
        """Arm a fabric fault: deliver the next ``count`` frames twice."""
        self._dup_next += count

    def forward(self, frame: Frame, in_port: int) -> None:
        """Learn the source MAC, then forward (or flood) the frame."""
        self.mac_table[frame.src_mac] = in_port
        if self._drop_next > 0:
            self._drop_next -= 1
            self.fault_dropped += 1
            return
        copies = 1
        if self._dup_next > 0:
            self._dup_next -= 1
            self.fault_duplicated += 1
            copies = 2
        self.forwarded_frames += 1
        if frame.dst_mac != BROADCAST_MAC:
            out = self.mac_table.get(frame.dst_mac)
            if out is not None:
                if out != in_port:
                    for _ in range(copies):
                        self.ports[out].transmit(frame)
                return
        # Unknown destination or broadcast: flood.
        self.flooded_frames += 1
        for port_id, port in self.ports.items():
            if port_id != in_port:
                for _ in range(copies):
                    port.transmit(frame)

    def port_of_mac(self, mac: int) -> Optional[int]:
        return self.mac_table.get(mac)
