"""Instances: the containers/VMs that consume pooled PCIe resources.

An instance sees a VirtIO-like packet interface (the Junction runtime's
virtual NIC): :meth:`Instance.send_frame` hands frames to whatever vNIC the
Oasis frontend driver attached, and received frames are dispatched to
registered handlers (the transports in :mod:`repro.net.transport`).

The resource request (:class:`ResourceSpec`) is what the pod-wide allocator
bin-packs in the Figure 2 stranding study and uses for NIC/SSD placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ReproError
from ..net.packet import Frame
from ..sim.core import Simulator

__all__ = ["Instance", "ResourceSpec"]


@dataclass(frozen=True)
class ResourceSpec:
    """Per-instance resource allocation request (cores, GB, Gbps, TB)."""

    cores: float = 2.0
    memory_gb: float = 8.0
    nic_gbps: float = 2.0
    ssd_tb: float = 0.5


class Instance:
    """A container running on a host, networked through Oasis."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        host,
        ip: int,
        spec: Optional[ResourceSpec] = None,
    ):
        self.sim = sim
        self.name = name
        self.host = host
        self.ip = ip
        self.spec = spec or ResourceSpec()
        self._vnic = None
        self._handlers: List[Callable[[Frame], None]] = []
        self.tx_frames = 0
        self.rx_frames = 0

    # -- vNIC wiring (done by the frontend driver at registration) -------------

    def attach_vnic(self, vnic) -> None:
        self._vnic = vnic

    # -- packet I/O -----------------------------------------------------------------

    def send_frame(self, frame: Frame) -> None:
        """Transmit through the attached vNIC (fills in src IP if unset)."""
        if self._vnic is None:
            raise ReproError(f"instance {self.name} has no vNIC attached")
        if frame.src_ip == 0:
            frame.src_ip = self.ip
        self.tx_frames += 1
        self._vnic.transmit(frame)

    def add_handler(self, handler: Callable[[Frame], None]) -> None:
        """Register a received-frame handler (called for every RX frame)."""
        self._handlers.append(handler)

    def deliver_frame(self, frame: Frame) -> None:
        """Called by the frontend driver when an RX packet reaches us."""
        if frame.meta:
            flow = frame.meta.get("flow")
            if flow is not None:
                flow.stage("app")
        self.rx_frames += 1
        for handler in self._handlers:
            handler(frame)
