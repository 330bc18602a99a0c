"""RX buffers are posted as runs: a differential oracle and an idle-rack guard.

``NetBackend`` posts never-used RX buffers to its NIC as one ``range`` run and
recycled ones as single addresses, and the NIC makes an ``RxDescriptor`` only
for the buffer a frame lands in (DESIGN §3h).  ``ReferenceRxPath`` in
``tests/reference_mem.py`` is the eager model it replaced: the backend posting
one descriptor per buffer.  A Hypothesis state machine drives a real
``SimNIC`` + ``NetBackend`` and the reference in lock-step through frame
arrivals (for a registered instance, or for an unknown IP that the backend
drops and recycles), frontend RX completions and NIC fail/recover, with rings
shallower and deeper than the pool.  After every step both agree on the
buffers popped so far, the buffers still posted, in order, the pool's
``available`` / ``outstanding`` and every drop counter; a double free, a
foreign and a misaligned address raise the same ``MemoryFault``.

``CHAOS_MAX_EXAMPLES`` raises the search effort (nightly); tier-1 runs 200.
"""

import gc
import os
from dataclasses import replace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.config import OasisConfig
from repro.core.netengine.backend import NetBackend
from repro.core.netengine.messages import OP_RX_COMP, NetMessage
from repro.core.pod import RackBuilder
from repro.errors import MemoryFault
from repro.experiments.common import CLIENT_IP, SERVER_IP
from repro.host.host import Host
from repro.mem.cxl import CXLMemoryPool
from repro.mem.layout import Region
from repro.net.packet import Frame, make_ip, make_mac
from repro.net.switch import LearningSwitch
from repro.pcie.nic import SimNIC
from repro.pcie.queues import RxDescriptor
from repro.sim.core import Simulator
from repro.workloads.echo import EchoClient, EchoServer

from .reference_mem import ReferenceRxPath

MAX_EXAMPLES = max(200, int(os.environ.get("CHAOS_MAX_EXAMPLES", "200")))
BUFFER = OasisConfig().datapath.rx_buffer_bytes
KNOWN_IP = make_ip(10, 0, 0, 1)
UNKNOWN_IP = make_ip(10, 0, 0, 99)


def posted_addresses(ring) -> list:
    """The production ring's posted buffers, oldest first, runs expanded."""
    return [addr for entry in ring._entries
            for addr in (entry if type(entry) is range else (entry,))]


class RxPaths(RuleBasedStateMachine):
    @initialize(depth=st.integers(1, 8), buffers=st.integers(1, 12),
                base=st.sampled_from((0, 64, 100)), local=st.booleans())
    def build(self, depth, buffers, base, local):
        self.sim = Simulator()
        host = Host(self.sim, "h0", CXLMemoryPool(size=1 << 20))
        config = OasisConfig()
        config = config.with_(nic=replace(config.nic, rx_queue_depth=depth))
        self.nic = SimNIC(self.sim, host, make_mac(0), config.nic, name="nic0")
        self.nic.connect(LearningSwitch(self.sim).new_port())
        self.region = Region(base, buffers * BUFFER + 90)
        domain = host.local if local else host.shared
        # Never started: a delivered completion waits in ``_rx_comps`` until
        # a rule hands it to ``_process_rx_comps``.
        self.backend = NetBackend(self.sim, host, self.nic, domain, self.region,
                                  config)
        self.backend.register_instance(KNOWN_IP, "fe-h1")
        self.ref = ReferenceRxPath(self.region, BUFFER, depth, local)
        self.popped = ([], [])
        self.held = []          # buffers forwarded to the (absent) frontend
        self.returned = []
        self.forwarded = self.unknown = 0
        deliver = self.backend._on_nic_rx

        def on_rx(completion):
            self.popped[0].append(completion.descriptor)
            deliver(completion)
        self.nic.on_rx = on_rx

    @rule(known=st.booleans())
    def frame_arrives(self, known):
        self.nic._on_wire_rx(Frame(dst_mac=self.nic.mac, src_mac=make_mac(9),
                                   dst_ip=KNOWN_IP if known else UNKNOWN_IP,
                                   payload=b"rx"))
        self.sim.run_all()
        self.backend._process_rx_comps()
        desc = self.ref.arrive()
        if desc is None:
            return
        self.popped[1].append(desc)
        if known:
            self.forwarded += 1
            self.held.append(desc.addr)
        else:
            self.unknown += 1
            self.ref.recycle(desc.addr)

    @precondition(lambda self: self.held)
    @rule(k=st.integers(0, 40))
    def frontend_returns_buffer(self, k):
        addr = self.held.pop(k % len(self.held))
        self.backend._handle_rx_comp(NetMessage(OP_RX_COMP, 0, KNOWN_IP, addr))
        self.ref.recycle(addr)
        self.returned.append(addr)

    @rule()
    def nic_fails(self):
        self.nic.fail()
        self.ref.failed = True

    @rule()
    def nic_recovers(self):
        self.nic.restore()
        self.ref.failed = False

    @rule(kind=st.sampled_from(("double", "foreign", "misaligned")),
          k=st.integers(0, 40))
    def bad_free(self, kind, k):
        out = self.ref.posted() + self.held
        if kind == "double":
            back = [addr for addr in self.returned if addr not in out]
            if not back:
                return
            addr = back[k % len(back)]
        elif kind == "foreign":
            addr = (self.region.end + 64 * k if k % 2
                    else self.region.base - BUFFER * (1 + k))
        else:
            addr = (out[k % len(out)] if out else self.region.end) + 64 * (1 + k % 31)
        faults = []
        for pool in (self.backend.rx_pool, self.ref.pool):
            try:
                pool.free(addr)
                faults.append(None)
            except MemoryFault as exc:
                faults.append(str(exc))
        assert faults[0] is not None and faults[0] == faults[1], (kind, addr, faults)

    @invariant()
    def paths_agree(self):
        assert self.popped[0] == self.popped[1]
        assert posted_addresses(self.nic.rx_ring) == self.ref.posted()
        assert len(self.nic.rx_ring) == len(self.ref.ring)
        new, ref = self.backend.rx_pool, self.ref.pool
        assert (new.available, new.outstanding) == (ref.available, ref.outstanding)
        assert self.nic.rx_dropped_no_buffer == self.ref.rx_dropped_no_buffer
        assert self.nic.rx_dropped_down == self.ref.rx_dropped_down
        assert self.backend.rx_dropped_unknown == self.unknown
        assert self.backend.rx_forwarded == self.forwarded


RxPaths.TestCase.settings = settings(
    max_examples=MAX_EXAMPLES, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
TestRxPathsAgainstEagerFill = RxPaths.TestCase


def live_descriptors() -> int:
    gc.collect()
    return sum(type(obj) is RxDescriptor for obj in gc.get_objects())


class TestIdleRackRxMemory:
    """An idle NIC costs one run, not a descriptor per posted buffer."""

    def test_idle_rack_posts_runs_and_makes_descriptors_only_for_frames(self):
        before = live_descriptors()
        pod = RackBuilder(hosts=32, pools=4, nics_per_host=2,
                          ssds_per_host=1).build()
        assert live_descriptors() == before
        depth = pod.config.nic.rx_queue_depth
        for backend in pod.backends.values():
            ring = backend.nic.rx_ring
            assert len(ring) == depth == 1024
            assert len(ring._entries) <= 1
            assert backend.rx_pool.outstanding == depth
        # A short echo: descriptors live only for frames between the NIC's
        # pop and the backend's hand-off, at most the buffers out of the ring.
        group = pod.groups[0]
        server_nic = pod.nics[f"nic-{group.hosts[1].name}"]
        EchoServer(pod.sim, pod.add_instance(group.hosts[0], ip=SERVER_IP,
                                             nic=server_nic))
        client = EchoClient(pod.sim, pod.add_external_client(ip=CLIENT_IP),
                            SERVER_IP, packet_size=256, rate_pps=20_000.0)
        client.start(0.01)
        pod.run(0.0051)
        in_flight = sum(b.rx_pool.outstanding - len(b.nic.rx_ring)
                        for b in pod.backends.values())
        live = live_descriptors() - before
        pod.stop()
        assert client.stats.received > 50
        assert server_nic.rx_frames > 50
        assert live <= in_flight
