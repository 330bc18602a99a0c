"""Shared experiment plumbing.

Every experiment module exposes ``run(...) -> dict`` (machine-readable
results) and ``main()`` (prints the paper-style table/series).  ``SCALE``
(env ``OASIS_SCALE``, default 1.0) shrinks simulated durations/workloads
proportionally so the suite can run quickly in CI while full-scale runs
regenerate the paper's statistics.
"""

from __future__ import annotations

import math
import os
from typing import Optional

from ..config import OasisConfig
from ..core.pod import CXLPod
from ..errors import ConfigError
from ..net.packet import make_ip
from ..workloads.echo import EchoServer

__all__ = ["scale", "build_echo_pod", "SERVER_IP", "CLIENT_IP"]

SERVER_IP = make_ip(10, 0, 0, 1)
CLIENT_IP = make_ip(10, 0, 9, 1)


def scale(default: float = 1.0) -> float:
    """Experiment scale factor from the OASIS_SCALE environment variable."""
    raw = os.environ.get("OASIS_SCALE", default)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ConfigError(f"OASIS_SCALE must be a finite number > 0, "
                          f"got {raw!r}")
    return value


def build_echo_pod(mode: str, remote: bool = True,
                   config: Optional[OasisConfig] = None,
                   backup_nic: bool = False):
    """The paper's §5 two-host testbed with a UDP echo server instance.

    Returns ``(pod, instance, client_endpoint, primary_nic)``.  ``remote``
    places the instance on the host *without* the NIC (the Oasis case);
    baseline modes colocate it.
    """
    pod = CXLPod(config=config, mode=mode)
    h0 = pod.add_host()
    h1 = pod.add_host() if (remote or backup_nic) else h0
    nic0 = pod.add_nic(h0)
    if backup_nic:
        pod.add_nic(h1, is_backup=True)
    instance_host = h1 if remote else h0
    inst = pod.add_instance(instance_host, ip=SERVER_IP, nic=nic0)
    EchoServer(pod.sim, inst)
    client = pod.add_external_client(ip=CLIENT_IP)
    return pod, inst, client, nic0
