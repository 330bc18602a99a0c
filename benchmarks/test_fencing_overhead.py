"""Benchmark: epoch-fencing overhead on the network datapath (§3.3.3).

Fencing adds one table lookup per TX post at the backend and a one-byte
stamp that rides inside the existing 16 B message, so steady-state
throughput must be indistinguishable from a pod with the epoch table
detached (``pod.set_fencing(False)``).  The suite asserts the fenced pod
keeps at least 98 % of the unfenced throughput.
"""

from repro.analysis.report import render_table
from repro.experiments.common import SERVER_IP, build_echo_pod, scale
from repro.sim.rng import Stream
from repro.workloads.echo import EchoClient


def _echo_received(fencing: bool, rate_pps: float = 20000.0) -> int:
    duration = max(0.2, 0.5 * scale())
    pod, inst, client_ep, nic0 = build_echo_pod("oasis", remote=True)
    pod.set_fencing(fencing)
    echo = EchoClient(pod.sim, client_ep, SERVER_IP, packet_size=256,
                      rate_pps=rate_pps, rng=Stream(7))
    echo.start(duration)
    pod.run(duration + 0.1)
    pod.stop()
    backend = pod.backends[nic0.name]
    assert backend.stale_accepted == 0
    if fencing:
        assert backend.fence_rejects == 0   # healthy traffic is never fenced
    return echo.stats.received


def test_fencing_throughput_overhead():
    on = _echo_received(fencing=True)
    off = _echo_received(fencing=False)
    rows = [("fencing on", on), ("fencing off", off),
            ("ratio", round(on / off, 4))]
    print(render_table(["configuration", "echoes received"], rows,
                       title="Epoch fencing: datapath overhead"))
    assert on >= 0.98 * off   # in the model: nothing at all
