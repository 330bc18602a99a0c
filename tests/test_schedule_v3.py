"""Schedule version 3 (DESIGN §3e): an event is a modelled latency or a
deadline that expired.

A request deadline is state the engine's core checks (one lazy ``Timer``
behind a FIFO deadline queue), a device doorbell is an MMIO write that rings
inline, and an election timer moves without touching the kernel's queue.
These tests pin what that buys (events per request, kernel occupancy) and
what it must not cost: the deadline still expires on the parent's float, in
submission order; a completion is never delivered on its submitter's stack;
an election starts at the simulated time it always did.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.config import NICConfig, OasisConfig, SSDConfig
from repro.core.pod import CXLPod, RackBuilder
from repro.core.raft.node import RaftNode
from repro.core.raft.rpc import DirectTransport
from repro.core.storage.frontend import STATUS_TIMEOUT
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.host.host import Host
from repro.mem.cxl import CXLMemoryPool
from repro.net.packet import Frame, make_ip, make_mac
from repro.net.switch import LearningSwitch
from repro.pcie.nic import (TX_STATUS_DMA_ABORT, TX_STATUS_LINK_ERROR,
                            TX_STATUS_OK, SimNIC)
from repro.pcie.queues import NVMeCommand, TxDescriptor
from repro.pcie.ssd import (NVME_OP_READ, NVME_STATUS_FAILED,
                            NVME_STATUS_LBA_RANGE, NVME_STATUS_OK, SimSSD)
from repro.sim.core import MSEC, USEC, PeriodicTask, Simulator, Timer
from repro.sim.rng import Stream
from repro.workloads.blockio import BlockWorkload
from repro.workloads.echo import EchoClient, EchoServer


def _storage_cell():
    """The ``storage_read`` cell: one pooled SSD, instance on the other host."""
    pod = CXLPod(config=OasisConfig().with_(seed=17), mode="oasis")
    h0, h1 = pod.add_host(), pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    device = pod.add_block_device(pod.add_instance(h1, ip=SERVER_IP), ssd)
    return pod, ssd, device, pod.storage_frontends[h1.name]


# -- the schedule version -----------------------------------------------------


#: Events the seeded fig10 echo dispatches: the schedule version's pin.  Same
#: seed, same schedule, same count on every machine; it moves only with a
#: change to when something posts an event.  32,139 under version 1, 14,796
#: under version 2 (the work-proportional driver loop), 13,781 under version
#: 3 (lazy deadlines, inline device doorbells), 13,779 under version 4 (the
#: link monitor ticks only after a link change).
SCHEDULE_V4_EVENTS = 13_779


def test_seeded_fig10_echo_dispatches_the_pinned_event_count():
    """256 B at 20 kpps Poisson, seed 17, flows wired: 0.05 s of load and a
    0.07 s run (the tail drains in-flight frames)."""
    pod, _inst, client, _nic = build_echo_pod(
        "oasis", remote=True, config=OasisConfig().with_(seed=17))
    echo = EchoClient(pod.sim, client, SERVER_IP, packet_size=256,
                      rate_pps=20_000.0, rng=pod.rng.get("echo-client"),
                      poisson=True, metrics=pod.metrics, flows=pod.flows)
    before = pod.sim.processed_events
    echo.start(0.05)
    pod.run(0.07)
    events = pod.sim.processed_events - before
    pod.stop()
    assert events == SCHEDULE_V4_EVENTS


# -- (i) events per request on quiet cells -----------------------------------


@pytest.fixture
def tally(monkeypatch):
    """Dispatched kernel events by callback name, for every Simulator built
    after this point (each posting method hands the kernel a counting shim)."""
    counts = Counter()

    def counting(method):
        def post(self, when, fn, *args):
            def counted(*a):
                counts[getattr(fn, "__qualname__", repr(fn))] += 1
                return fn(*a)
            return method(self, when, counted, *args)
        return post

    for name in ("schedule", "call_after"):     # at() goes through schedule
        monkeypatch.setattr(Simulator, name, counting(getattr(Simulator, name)))
    for cls, name in ((Timer, "_tick"),          # these post their own entry
                      (PeriodicTask, "_fire")):
        def counted_own(self, method=getattr(cls, name),
                        key=f"{cls.__name__}.{name}"):
            counts[key] += 1
            method(self)

        monkeypatch.setattr(cls, name, counted_own)
    return counts


#: Not requests' events: periodic tasks (telemetry, link monitor) and what
#: they send, and the deadline timer's one tick per timeout period.
_BACKGROUND = ("PeriodicTask._fire", "Timer._tick", "PodAllocator.")


def _request_events(tally) -> dict:
    return {name: n for name, n in tally.items()
            if not name.startswith(_BACKGROUND)}


class TestEventFloor:
    @pytest.mark.parametrize("read_fraction", [1.0, 0.0])
    def test_six_events_per_block_io(self, tally, read_fraction):
        pod, _ssd, device, frontend = _storage_cell()
        workload = BlockWorkload(
            pod.sim, device, rate_iops=2_000.0, read_fraction=read_fraction,
            io_blocks=1, address_blocks=4096, queue_depth=1 << 30,
            rng=pod.rng.get("test/block"))
        pod.run(0.005)
        tally.clear()
        before = pod.sim.processed_events
        workload.start(0.05)
        pod.run(0.06)                       # 50 ms of arrivals, then drain
        n = workload.stats.completed
        assert n == workload.stats.submitted > 50 and frontend.inflight == 0
        events = _request_events(tally)
        arrivals = events.pop("BlockWorkload._issue_one")
        assert n <= arrivals <= n + 1       # the arrival that finds it is over
        assert events.pop("BlockWorkload._stop", 0) <= 1
        # One event per modelled latency: the IPC hop in, the two channel
        # hops, the media, the IPC hop out.  No doorbell hop, no deadline.
        assert events == {
            "StorageFrontend._enqueue": n,
            "DoorbellChannel._fire": 2 * n,
            "SimSSD._execute": n,
            "BlockWorkload._issue_one.<locals>.<lambda>": n,
        }
        # ... and every event of the window is in the tally: 6 per I/O plus
        # background, of which the deadline timer is one tick per period.
        assert sum(tally.values()) == pod.sim.processed_events - before
        timeout_s = pod.config.retry.storage_timeout_ms * MSEC
        assert 1 <= tally["Timer._tick"] <= 0.06 / timeout_s + 1
        pod.stop()

    def test_thirteen_events_per_echo(self, tally):
        pod, _inst, client, _nic = build_echo_pod("oasis", remote=True)
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=2_000,
                          packet_size=256)
        pod.run(0.005)
        tally.clear()
        echo.start(0.05)
        pod.run(0.06)
        n = echo.stats.received
        assert n == echo.stats.sent == 100
        events = _request_events(tally)
        assert n <= events.pop("EchoClient._send_one") <= n + 1
        assert events.pop("EchoClient._stop", 0) <= 1
        # A ring that lands inside a driver's busy horizon waits for its end:
        # a modelled latency too (the previous pass's CPU cost), 0.25-0.5 per
        # echo depending on the rate.
        assert events.pop("Driver._pass") <= n
        assert events == {
            "ExternalEndpoint._dispatch": n,
            "SwitchPort.receive": n,
            "SwitchPort._deliver_if_up": 2 * n,
            "SimNIC._deliver_rx": n,
            "DoorbellChannel._fire": 4 * n,
            "Instance.deliver_frame": n,
            "NetFrontend._ipc_tx_arrive": n,
            "SimNIC._tx_emit": n,
        }
        pod.stop()


# -- (ii) kernel occupancy ----------------------------------------------------


class TestKernelOccupancy:
    def test_storage_cell_holds_no_stale_deadlines(self):
        pod, _ssd, device, frontend = _storage_cell()
        workload = BlockWorkload(
            pod.sim, device, rate_iops=8_000.0, read_fraction=1.0,
            io_blocks=1, address_blocks=4096, queue_depth=1 << 30,
            rng=pod.rng.get("perf/block"))
        workload.start(1.0)
        pod.run(0.05)
        assert workload.stats.completed > 350
        assert pod.sim.pending <= 16        # 215 under schedule version 2
        assert pod.sim.tombstones == 0
        # The deadline queue holds about one timeout period of requests,
        # nearly all of them retired and waiting to be skipped.
        period = pod.config.retry.storage_timeout_ms * MSEC * 8_000.0
        assert len(frontend._deadlines) <= 1.5 * period
        pod.stop()

    def test_control_churn_rack_keeps_its_heap_free_of_tombstones(self):
        base = OasisConfig()
        config = base.with_(seed=17, failover=replace(
            base.failover, commit_batch_window_ms=0.2))
        pod = RackBuilder(hosts=32, pools=4, nics_per_host=2, ssds_per_host=1,
                          port_limit=4, config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.12)
        pod.allocator.start_lease_sweeper()
        rng = pod.rng.get("test/churn")
        issued = [0]

        def place(j):
            ip = make_ip(10, 1, j >> 8, j & 0xFF)
            pod.allocator.place_instance(ip, pod.hosts[j % 32].name, 0.2)
            pod.sim.schedule(0.0006, pod.allocator.release_instance, ip, 0.2)
            pod.sim.schedule(float(rng.exponential(1e-4)), place, j + 1)
            issued[0] += 2

        place(0)
        pod.run(0.05)
        assert issued[0] > 800
        assert pod.sim.tombstones <= 100   # 2,977 under schedule version 2
        pod.stop()


# -- (iii) the deadline still works --------------------------------------------


class _CompletionGate:
    """Sits between the SSD and its backend: drops or holds completions."""

    def __init__(self, ssd):
        self.deliver = ssd.on_completion
        self.drop = 0           # completions still to swallow
        self.hold = 0           # completions still to park in ``held``
        self.held = []
        ssd.on_completion = self

    def __call__(self, completion):
        if self.drop:
            self.drop -= 1
        elif self.hold:
            self.hold -= 1
            self.held.append(completion)
        else:
            self.deliver(completion)


class TestStorageDeadlines:
    @staticmethod
    def _cell():
        pod, ssd, device, frontend = _storage_cell()
        gate = _CompletionGate(ssd)
        expiries = []           # (sim time, cid) of every expired deadline
        retry_or_give_up = frontend._retry_or_give_up

        def spy(cid, state, status, budgeted):
            if status == STATUS_TIMEOUT:
                expiries.append((pod.sim.now, cid))
            retry_or_give_up(cid, state, status, budgeted)

        frontend._retry_or_give_up = spy
        pod.run(0.0123)         # a clock that is not a round float
        return pod, device, frontend, gate, expiries

    def test_lost_completion_times_out_on_the_float_and_is_retried(self):
        pod, device, frontend, gate, expiries = self._cell()
        retry = pod.config.retry
        statuses = []
        gate.drop = 1
        t_submit = pod.sim.now
        cid = device.read(3, 1, lambda status, data: statuses.append(status))
        deadline = t_submit + retry.storage_timeout_ms * MSEC
        pod.sim.run(until=deadline - 1e-9)
        assert frontend.timeouts == 0 and statuses == []
        pod.sim.run(until=deadline)
        assert frontend.timeouts == 1 and expiries == [(deadline, cid)]
        assert frontend.retries == 1 and statuses == []
        # Back-off, resubmission, a normal completion.
        pod.sim.run(until=deadline + retry.storage_backoff_ms * MSEC - 1e-9)
        assert frontend._pending[cid]["attempt"] == 1
        pod.run(0.002)
        assert statuses == [0] and frontend.completed_ok == 1
        assert frontend.inflight == 0 and frontend.giveups == 0
        pod.run(0.1)            # the second attempt's deadline is stale
        assert frontend.timeouts == 1 and not frontend._deadlines
        assert frontend._deadline_timer.deadline is None
        pod.stop()

    def test_every_attempt_lost_gives_up_after_exponential_backoff(self):
        pod, device, frontend, gate, expiries = self._cell()
        retry = pod.config.retry
        statuses = []
        gate.drop = 1 << 30
        expected = []
        t = pod.sim.now
        cid = device.write(5, b"\x5a" * device.block_size, statuses.append)
        for k in range(retry.storage_max_retries + 1):
            t = t + retry.storage_timeout_ms * MSEC
            expected.append((t, cid))
            t = t + (retry.storage_backoff_ms
                     * retry.storage_backoff_mult ** k) * MSEC
        pod.run(0.2)
        assert expiries == expected                   # bit-equal floats
        assert frontend.timeouts == retry.storage_max_retries + 1
        assert frontend.retries == retry.storage_max_retries
        assert frontend.giveups == 1 and statuses == [STATUS_TIMEOUT]
        assert frontend.inflight == 0 and frontend.completed_error == 1
        pod.stop()

    def test_late_completion_after_the_retry_wins_and_disarms(self):
        pod, device, frontend, gate, expiries = self._cell()
        retry = pod.config.retry
        statuses = []
        gate.hold = 1
        device.read(7, 1, lambda status, data: statuses.append(status))
        pod.run((retry.storage_timeout_ms + retry.storage_backoff_ms) * 1e-3
                + 20e-6)        # timed out, backed off, resubmitted
        assert frontend.timeouts == 1 and frontend.retries == 1
        assert statuses == [] and len(gate.held) == 1
        gate.deliver(gate.held.pop())   # the first attempt's answer, late
        pod.run(0.001)
        assert statuses == [0] and frontend.inflight == 0
        pod.run(0.1)            # the retry's own completion is a duplicate
        assert statuses == [0] and frontend.completed_ok == 1
        assert frontend.timeouts == 1 and len(expiries) == 1
        assert not frontend._deadlines
        pod.stop()

    def test_same_instant_deadlines_expire_in_submission_order(self):
        pod, device, frontend, gate, expiries = self._cell()
        gate.drop = 2
        t_submit = pod.sim.now
        first = device.read(1, 1, lambda status, data: None)
        second = device.read(2, 1, lambda status, data: None)
        third = []              # answered: its stale entry sits between
        device.read(9, 1, lambda status, data: third.append(status))
        pod.run(0.03)
        deadline = t_submit + pod.config.retry.storage_timeout_ms * MSEC
        assert expiries == [(deadline, first), (deadline, second)]
        assert third == [0]
        pod.stop()

    def test_recycled_cid_does_not_inherit_a_stale_deadline(self):
        """An entry names its request's state object: a new request that
        reuses the cid (and the attempt number) of a completed one is not
        timed out by the old one's deadline."""
        pod, device, frontend, gate, expiries = self._cell()
        done = []
        cid = device.read(1, 1, lambda status, data: done.append(status))
        pod.run(0.024)
        assert done == [0]
        frontend._next_cid = cid            # wrap-around, compressed
        gate.drop = 1
        t_second = pod.sim.now
        assert device.read(2, 1, lambda status, data: None) == cid
        pod.run(0.002)                      # the first deadline passes
        assert frontend.timeouts == 0
        pod.run(0.03)
        assert expiries == [
            (t_second + pod.config.retry.storage_timeout_ms * MSEC, cid)]
        pod.stop()


# -- (v) no completion on the submitter's stack --------------------------------


class _StackProbe:
    """Wraps a device's post call and completion callback; records every
    completion that arrives while the post call is still on the stack."""

    def __init__(self, device, post_name, complete_name):
        self.inside = False
        self.completions = []
        self.delivered_inside = []
        post = getattr(device, post_name)

        def posting(descriptor):
            self.inside = True
            try:
                post(descriptor)
            finally:
                self.inside = False

        def completing(completion):
            self.completions.append(completion)
            if self.inside:
                self.delivered_inside.append(completion)

        setattr(device, post_name, posting)
        setattr(device, complete_name, completing)
        self.post = posting


@pytest.fixture
def nic_rig(sim):
    pool = CXLMemoryPool(size=1 << 20)
    host = Host(sim, "h0", pool)
    switch = LearningSwitch(sim)
    nic = SimNIC(sim, host, make_mac(0), NICConfig(), name="nic0")
    nic.connect(switch.new_port())
    switch.new_port().attach(lambda frame: None)
    data = Frame(dst_mac=make_mac(9), src_mac=make_mac(0), dst_ip=0,
                 payload=b"data").pack()
    pool.dma_write(0, data)
    return nic, _StackProbe(nic, "post_tx", "on_tx_complete"), len(data)


@pytest.fixture
def ssd_rig(sim):
    pool = CXLMemoryPool(size=1 << 20)
    ssd = SimSSD(sim, Host(sim, "h0", pool),
                 SSDConfig(capacity_bytes=1 << 30), name="ssd0")
    return ssd, _StackProbe(ssd, "submit", "on_completion")


class TestNoCompletionOnSubmittersStack:
    def test_idle_nic_starts_the_wqe_inline_and_posts_one_event(self, sim, nic_rig):
        nic, probe, size = nic_rig
        probe.post(TxDescriptor(addr=0, length=size))
        # The doorbell rang inline: the WQE is off the ring, its one event
        # (serialisation done) is queued, and no zero-delay hop is.
        assert nic.tx_ring.empty and sim.pending == 1
        assert nic._tx_busy_until > sim.now
        sim.run_all()
        assert [c.status for c in probe.completions] == [TX_STATUS_OK]
        assert probe.delivered_inside == [] and sim.processed_events == 2

    def test_busy_nic_queues_behind_one_event(self, sim, nic_rig):
        nic, probe, size = nic_rig
        for _ in range(3):
            probe.post(TxDescriptor(addr=0, length=size))
        assert len(nic.tx_ring) == 2 and sim.pending == 2   # emit + next start
        sim.run_all()
        assert [c.status for c in probe.completions] == [TX_STATUS_OK] * 3
        assert probe.delivered_inside == []

    def test_dma_abort_completes_after_post_returns(self, sim, nic_rig):
        nic, probe, size = nic_rig
        nic.inject_dma_abort(2)
        for _ in range(3):
            probe.post(TxDescriptor(addr=0, length=size))
        assert probe.completions == []
        sim.run_all()
        assert [c.status for c in probe.completions] == [
            TX_STATUS_DMA_ABORT, TX_STATUS_DMA_ABORT, TX_STATUS_OK]
        assert probe.delivered_inside == [] and nic.dma_aborts == 2

    def test_failed_nic_completes_queued_wqes_from_fail_not_from_post(
            self, sim, nic_rig):
        nic, probe, size = nic_rig
        probe.post(TxDescriptor(addr=0, length=size))
        probe.post(TxDescriptor(addr=0, length=size))
        nic.fail()
        sim.run_all()
        assert [c.status for c in probe.completions] == [
            TX_STATUS_LINK_ERROR, TX_STATUS_LINK_ERROR]
        assert probe.delivered_inside == []

    def test_idle_ssd_starts_the_command_inline(self, sim, ssd_rig):
        ssd, probe = ssd_rig
        probe.post(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0))
        assert ssd.sq.empty and sim.pending == 1    # the media latency
        sim.run_all()
        assert [c.status for c in probe.completions] == [NVME_STATUS_OK]
        assert probe.delivered_inside == [] and sim.processed_events == 1

    def test_out_of_range_lba_completes_after_submit_returns_in_order(
            self, sim, ssd_rig):
        ssd, probe = ssd_rig
        probe.post(NVMeCommand(NVME_OP_READ, slba=ssd.num_blocks, nlb=1,
                               addr=0, cid=1))
        probe.post(NVMeCommand(NVME_OP_READ, slba=0, nlb=0, addr=0, cid=2))
        probe.post(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0, cid=3))
        assert probe.completions == [] and len(ssd.sq) == 3
        sim.run_all()
        assert [(c.descriptor.cid, c.status) for c in probe.completions] == [
            (1, NVME_STATUS_LBA_RANGE), (2, NVME_STATUS_LBA_RANGE),
            (3, NVME_STATUS_OK)]
        assert probe.delivered_inside == []

    def test_failed_ssd_completes_after_submit_returns(self, sim, ssd_rig):
        ssd, probe = ssd_rig
        probe.post(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0, cid=1))
        sim.run(until=10 * USEC)
        ssd.fail()              # mid-flight: errors out when the media is due
        sim.run_all()
        assert [c.status for c in probe.completions] == [NVME_STATUS_FAILED]
        assert probe.delivered_inside == []

    def test_invariant_checker_stays_green_through_every_fault_path(self):
        pod = CXLPod(config=OasisConfig().with_(seed=17), mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        nic0 = pod.add_nic(h0)
        pod.add_nic(h1)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h1, ip=SERVER_IP, nic=nic0)
        device = pod.add_block_device(inst, ssd)
        EchoServer(pod.sim, inst)
        client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
        checker = pod.check_invariants(interval_s=0.005)
        echo = EchoClient(pod.sim, client, SERVER_IP, rate_pps=4_000.0)
        echo.start(0.12)
        statuses = []
        pod.run(0.02)
        nic0.inject_dma_abort(3)
        device.read(ssd.num_blocks, 1,
                    lambda status, data: statuses.append(status))
        pod.run(0.03)
        for lba in range(4):
            device.read(lba, 1, lambda status, data: statuses.append(status))
        ssd.fail()
        pod.run(0.03)
        nic0.fail()
        pod.run(0.2)
        pod.stop()
        verdict = checker.finish()
        assert verdict.ok, verdict.render()
        assert verdict.checks["completion-conservation"] > 0
        assert len(statuses) == 5 and all(statuses)
        assert nic0.dma_aborts == 3


# -- (vi) the election timer -----------------------------------------------------


class TestElectionTimer:
    def test_silent_leader_is_replaced_at_the_same_simulated_time(self, sim):
        """Seeded, bit-equal to schedule version 2: the follower's deadline
        moved ~40 times by appends, and expires where its last ``rng`` draw
        put it although the kernel never saw the moves."""
        transport = DirectTransport(sim)
        ids = ["n0", "n1", "n2"]
        nodes = [RaftNode(sim, node_id, ids, transport,
                          rng=Stream(700 + i))
                 for i, node_id in enumerate(ids)]
        elections = []
        for node in nodes:
            def start_election(node=node, start=node._start_election):
                elections.append((node.node_id, sim.now))
                start()
            node._start_election = start_election
            node.start()
        sim.run(until=1.0)
        (leader,) = [node for node in nodes if node.is_leader]
        for k in range(40):
            leader.propose({"k": k})
            sim.run(until=sim.now + 3.7 * MSEC)
        # 80 appends reset two followers' deadlines; only a reset that draws
        # a deadline *earlier* than the queued entry leaves a tombstone.
        assert sim.tombstones <= 10
        leader.crash()
        assert sim.now == 1.1480000000000015
        sim.run(until=sim.now + 1.0)
        assert elections == [("n2", 0.16825733349391545),
                             ("n1", 1.313387329635142)]
        assert [node.node_id for node in nodes if node.is_leader] == ["n1"]
