"""The seven benchmark workloads, built only from public ``repro`` names.

Every workload has the same life cycle, driven by ``perf/child.py``::

    setup()    build the topology, elect leaders, start the open-loop
               generators and run a warm-up slice (modelled caches, rings,
               MAC tables, the event pool and the interpreter are warm)
    run_slice() x SLICES
               the measured window: a fixed amount of simulated time with
               the generators running at both edges
    drain()    untimed: generators stop, in-flight requests complete
    observe()  what happened to the requests issued inside the window, plus
               the facts the output checks in ``perf/run.py`` judge

Nothing here reads an underscore attribute of the program, and nothing under
``src/`` knows the benchmark exists.  README.md lists the public names this
file pins.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace

import numpy as np

from repro.channel.microbench import ChannelMicrobench
from repro.config import OasisConfig
from repro.core.pod import CXLPod, RackBuilder
from repro.core.storage.frontend import STATUS_SHED
from repro.experiments.common import SERVER_IP, build_echo_pod
from repro.net.packet import make_ip
from repro.sim.core import Simulator
from repro.workloads.blockio import BlockWorkload
from repro.workloads.echo import EchoClient, EchoServer
from repro.workloads.tenants import SERVE_PROFILES, TenantClient
from trace import flow_stage_metrics

__all__ = ["WORKLOADS", "SLICES", "track_simulators"]

# -- kernel event counting -----------------------------------------------------

_simulators: list = []


def track_simulators() -> None:
    """Remember every ``Simulator`` built from now on (no per-event cost)."""
    original = Simulator.__init__

    def tracked_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _simulators.append(self)

    Simulator.__init__ = tracked_init


# -- measuring from outside: harness-owned observers ---------------------------


class RecordingDevice:
    """A block device proxy that logs (issue, completion, status, tenant).

    The generators hand their requests to this object at their due time, so
    issue time is the due time and generator lateness is zero.
    """

    def __init__(self, device, sim):
        self.device = device
        self.sim = sim
        self.block_size = device.block_size
        self.log: list = []

    def read(self, lba, nblocks, callback, **kwargs):
        issued, sim, log = self.sim.now, self.sim, self.log
        tenant = kwargs.get("tenant")

        def done(status, data):
            log.append((issued, sim.now, status, tenant))
            callback(status, data)

        return self.device.read(lba, nblocks, done, **kwargs)

    def write(self, lba, data, callback, **kwargs):
        issued, sim, log = self.sim.now, self.sim, self.log
        tenant = kwargs.get("tenant")

        def done(status):
            log.append((issued, sim.now, status, tenant))
            callback(status)

        return self.device.write(lba, data, done, **kwargs)

    def window_accounting(self, t0: float, t1: float) -> dict:
        """Requests issued in [t0, t1) and what became of them."""
        window = [r for r in self.log if t0 <= r[0] < t1]
        return {
            "issued": len(window),
            "ok": sum(1 for r in window if r[2] == 0),
            "shed": sum(1 for r in window if r[2] == STATUS_SHED),
            "done_in_window": sum(1 for r in self.log
                                  if r[2] == 0 and t0 <= r[1] < t1),
        }

    def latencies_us(self, t0: float, t1: float, tenant=None) -> np.ndarray:
        """Latency of each OK request issued in [t0, t1)."""
        return np.asarray([(r[1] - r[0]) * 1e6 for r in self.log
                           if t0 <= r[0] < t1 and r[2] == 0
                           and (tenant is None or r[3] == tenant)])


class ControlChurn:
    """Open-loop place/release pairs against ``pod.allocator``.

    Pairs arrive with exponential gaps from the pod's seeded RNG and each
    placement is released ``hold_s`` later.  One pair is two control
    commands.  The model has no control-plane load generator of its own, so
    this one lives here; it runs in simulated time like the others.
    """

    def __init__(self, pod, pairs_per_s: float, rng, hold_s: float = 0.0006):
        self.pod = pod
        self.rate = pairs_per_s
        self.rng = rng
        self.hold_s = hold_s
        self.issue_times: list = []     # ascending: appended in event order
        self.end = 0.0
        self.commits_before = 0

    def start(self, duration: float) -> None:
        self.end = self.pod.sim.now + duration
        self.commits_before = len(self.pod.allocator.commit_latencies)
        self.pod.sim.schedule(0.0, self._place, 0)

    def _place(self, j: int) -> None:
        sim = self.pod.sim
        if sim.now >= self.end:
            return
        ip = make_ip(10, 1 + (j >> 16), (j >> 8) & 0xFF, j & 0xFF)
        host = self.pod.hosts[j % len(self.pod.hosts)]
        self.pod.allocator.place_instance(ip, host.name, 0.2)
        self.issue_times.append(sim.now)
        sim.schedule(self.hold_s, self._release, ip)
        sim.schedule(float(self.rng.exponential(1.0 / self.rate)),
                     self._place, j + 1)

    def _release(self, ip: int) -> None:
        self.pod.allocator.release_instance(ip, 0.2)
        self.issue_times.append(self.pod.sim.now)

    def issued_in(self, t0: float, t1: float) -> int:
        return (bisect_left(self.issue_times, t1)
                - bisect_left(self.issue_times, t0))

    def shard_marks(self) -> dict:
        """Per-shard sample counts (the merged list is not in time order)."""
        return {name: len(shard.commit_latencies)
                for name, shard in self.pod.allocator.shards.items()}

    def latencies_us_between(self, before: dict, after: dict) -> np.ndarray:
        """Decide-to-leader-applied latency of the commits between marks."""
        shards = self.pod.allocator.shards
        samples = [x for name in sorted(shards)
                   for x in shards[name].commit_latencies[
                       before[name]:after[name]]]
        return np.asarray(samples, dtype=float) * 1e6

    def facts(self) -> dict:
        allocator = self.pod.allocator
        commits = np.asarray(allocator.commit_latencies, dtype=float)
        return {
            "converged": bool(allocator.convergence_ok()),
            "pending_commands": int(allocator.pending_commands),
            "commands_issued": len(self.issue_times),
            "commands_committed": len(commits) - self.commits_before,
            "commit_p99_ms": (float(np.percentile(commits, 99)) * 1e3
                              if len(commits) else 0.0),
        }


def echo_accounting(clients, t0: float, t1: float) -> dict:
    """Window accounting over echo clients.

    ``EchoStats`` keeps send times by sequence number and, per reply, the
    receive time and the RTT; the send a reply answers is the one whose time
    is ``recv - rtt``.
    """
    issued = ok = done_in_window = duplicates = 0
    rtts = []
    for client in clients:
        stats = client.stats
        sends = np.asarray(stats.send_times, dtype=float)
        recv = np.asarray(stats.recv_times, dtype=float)
        rtt = np.asarray(stats.latencies_us, dtype=float)
        in_window = (sends >= t0) & (sends < t1)
        issued += int(in_window.sum())
        if not len(recv):
            continue
        derived = recv - rtt * 1e-6
        # Nearest send: Poisson gaps can be under a nanosecond, the rounding
        # of recv - rtt is some 1e-15 s.
        right = np.clip(np.searchsorted(sends, derived), 1, len(sends) - 1)
        seqs = np.where(derived - sends[right - 1] <= sends[right] - derived,
                        right - 1, right)
        if np.abs(sends[seqs] - derived).max() > 1e-12:
            raise RuntimeError("an echo reply matches no send time")
        duplicates += len(seqs) - len(np.unique(seqs))
        answered = in_window[seqs]
        ok += int(answered.sum())
        rtts.append(rtt[answered])
        done_in_window += int(((recv >= t0) & (recv < t1)).sum())
    return {
        "issued": issued, "ok": ok, "shed": 0,
        "done_in_window": done_in_window,
        "latencies_us": np.concatenate(rtts) if rtts else np.zeros(0),
        "facts": {
            "echo_unanswered": sum(c.stats.sent - c.stats.received
                                   for c in clients),
            "echo_duplicate_seqs": duplicates,
        },
    }


# -- the workloads -------------------------------------------------------------


#: The window runs as this many slices; ``perf/child.py`` times each one and
#: samples the host-clock calibration loop between them (hostclock.py).
SLICES = 12


class Workload:
    """Base: the life cycle in the module docstring."""

    name = ""
    seeded = True
    window_s = 0.0      # simulated seconds measured
    pod = None          # pod-less workloads have no registry to snapshot

    def __init__(self, seed: int, host_seconds: float, flows: bool = False):
        self.seed = seed
        self.flows = flows

    def setup(self) -> None:
        raise NotImplementedError

    def run_slice(self, index: int) -> None:
        """One of the window's ``SLICES`` parts, in order."""
        raise NotImplementedError

    def drain(self) -> None:
        raise NotImplementedError

    def observe(self) -> dict:
        raise NotImplementedError

    def events(self) -> int:
        """Kernel events dispatched so far by every Simulator in the child."""
        return sum(sim.processed_events for sim in _simulators)


class PodWorkload(Workload):
    #: measured simulated seconds per nominal host second (reference box)
    sim_s_per_host_s = 0.0
    #: the window is a whole number of these
    quantum_s = 0.001
    warm_s = 0.05
    tail_s = 0.002      # generators keep running past the window's far edge
    drain_s = 0.05

    def __init__(self, seed: int, host_seconds: float, flows: bool = False):
        super().__init__(seed, host_seconds, flows)
        steps = max(1, round(host_seconds * self.sim_s_per_host_s
                             / self.quantum_s))
        self.window_s = steps * self.quantum_s

    def build(self) -> None:
        """Create ``self.pod`` and the generators (not yet started)."""
        raise NotImplementedError

    def start_generators(self, duration: float) -> None:
        raise NotImplementedError

    def generator_count(self) -> int:
        """The generators' own running count of units issued."""
        raise NotImplementedError

    def config(self, **overrides) -> OasisConfig:
        return OasisConfig().with_(seed=self.seed, **overrides)

    def setup(self) -> None:
        self.build()
        if self.flows:
            self.pod.enable_flow_tracing(max_records=2_000_000)
        self.start_generators(self.warm_s + self.window_s + self.tail_s)
        self.pod.run(self.warm_s)
        self.t0 = self.pod.sim.now
        self.count0 = self.generator_count()

    def run_slice(self, index: int) -> None:
        self.pod.run(self.window_s / SLICES)

    def drain(self) -> None:
        self.t1 = self.pod.sim.now
        self.scheduled = self.generator_count() - self.count0
        self.pod.run(self.tail_s + self.drain_s)
        self.after_drain()
        self.pod.stop()

    def after_drain(self) -> None:
        """Hook: checks that need the still-running pod."""


class EchoCell(PodWorkload):
    """The canonical fig10 cell: 256 B UDP echo, remote NIC, 20 kpps."""

    name = "echo_cell"
    sim_s_per_host_s = 0.188
    drain_s = 0.02
    twin_s = 0.1        # length of the local-mode twin run (check only)

    def make_client(self, pod, endpoint, flows: bool) -> EchoClient:
        return EchoClient(pod.sim, endpoint, SERVER_IP, packet_size=256,
                          rate_pps=20_000.0, rng=pod.rng.get("perf/echo"),
                          poisson=True, metrics=pod.metrics,
                          flows=pod.flows if flows else None)

    def build(self) -> None:
        self.pod, _inst, endpoint, _nic = build_echo_pod(
            "oasis", remote=True, config=self.config())
        self.client = self.make_client(self.pod, endpoint, self.flows)

    def start_generators(self, duration: float) -> None:
        self.client.start(duration)

    def generator_count(self) -> int:
        return self.client.stats.sent

    def observe(self) -> dict:
        obs = echo_accounting([self.client], self.t0, self.t1)
        # Output check: Oasis p50 minus a short Junction-baseline twin
        # (local NIC, local buffers, same seed and generator).
        twin, _inst, endpoint, _nic = build_echo_pod(
            "local", remote=False, config=self.config())
        if self.flows:
            twin.enable_flow_tracing()
        twin_client = self.make_client(twin, endpoint, self.flows)
        twin_client.start(self.twin_s)
        twin.run(self.twin_s + self.drain_s)
        twin.stop()
        local_p50 = float(np.percentile(twin_client.stats.latencies_us, 50))
        oasis_p50 = float(np.percentile(obs["latencies_us"], 50))
        obs["facts"]["local_p50_us"] = local_p50
        obs["facts"]["echo_overhead_us"] = oasis_p50 - local_p50
        if self.flows:
            # fig11's cross-check: the overhead sits in the channel stages
            stages = flow_stage_metrics(twin.flows.records, 0.0, self.twin_s)
            obs["facts"]["twin_channel_p50_us"] = stages["flow.chan_us_p50"]
        return obs


class RackWorkload(PodWorkload):
    """32 hosts / 4 pools / 100 devices, Raft x3, 0.2 ms group commit."""

    churn_pairs_per_s = 0.0
    drain_s = 0.1       # lets the last group-commit windows flush

    def build(self) -> None:
        base = OasisConfig()
        config = self.config(
            failover=replace(base.failover, commit_batch_window_ms=0.2))
        pod = self.pod = RackBuilder(
            hosts=32, pools=4, nics_per_host=2, ssds_per_host=1,
            port_limit=4, config=config).build()
        pod.enable_raft(replicas=3)
        pod.run(0.12)       # every shard elects its leader before load
        pod.allocator.start_lease_sweeper()
        self.churn = ControlChurn(pod, self.churn_pairs_per_s,
                                  pod.rng.get("perf/churn"))

    def setup(self) -> None:
        super().setup()
        self.marks0 = self.churn.shard_marks()
        self.batches0 = self.pod.allocator.batches_proposed

    def drain(self) -> None:
        self.marks1 = self.churn.shard_marks()
        self.batches1 = self.pod.allocator.batches_proposed
        super().drain()

    def control_observation(self) -> dict:
        """The window's control commands: counts, commit latency, batching."""
        commands = self.churn.issued_in(self.t0, self.t1)
        facts = self.churn.facts()
        lost = max(0, facts["commands_issued"] - facts["commands_committed"])
        latencies = self.churn.latencies_us_between(self.marks0, self.marks1)
        batches = self.batches1 - self.batches0
        return {
            "issued": commands, "ok": commands - lost, "shed": 0,
            "done_in_window": len(latencies),
            "latencies_us": latencies,
            "facts": facts,
            "ledger": {
                "core.allocator.commit_p50_ms":
                    float(np.percentile(latencies, 50)) / 1e3,
                "core.allocator.commit_p99_ms":
                    float(np.percentile(latencies, 99)) / 1e3,
                "core.raft.commits_per_batch":
                    len(latencies) / batches if batches else None,
            },
        }


class RackEcho(RackWorkload):
    """The same echo on every host of the rack, plus control churn."""

    name = "rack_echo"
    sim_s_per_host_s = 0.00515
    quantum_s = 0.0001
    warm_s = 0.004
    tail_s = 0.001
    churn_pairs_per_s = 3200.0      # 128 pairs per 0.04 sim-s

    def build(self) -> None:
        super().build()
        pod = self.pod
        self.clients = []
        for group in pod.groups:
            for gi, host in enumerate(group.hosts):
                i = host.index
                server_ip = make_ip(10, 0, 0, i + 1)
                # Pinned to the next host's NIC inside the pool, so every
                # request crosses the pool.
                next_host = group.hosts[(gi + 1) % len(group.hosts)]
                inst = pod.add_instance(host, ip=server_ip,
                                        nic=pod.nics[f"nic-{next_host.name}"])
                EchoServer(pod.sim, inst)
                endpoint = pod.add_external_client(
                    ip=make_ip(10, 0, 9, i + 1))
                self.clients.append(EchoClient(
                    pod.sim, endpoint, server_ip, packet_size=256,
                    rate_pps=20_000.0, rng=pod.rng.get(f"perf/rack-echo-{i}"),
                    poisson=True, metrics=pod.metrics,
                    flows=pod.flows if self.flows else None,
                    name=f"echo-client-{i}"))
        pod.run(0.001)      # the 32 placements above commit before the churn

    def start_generators(self, duration: float) -> None:
        self.churn.start(duration)
        for client in self.clients:
            client.start(duration)

    def generator_count(self) -> int:
        return (sum(c.stats.sent for c in self.clients)
                + len(self.churn.issue_times))

    def observe(self) -> dict:
        # Echoes and commands are both requests; the latency population is
        # the echo RTTs.
        obs = echo_accounting(self.clients, self.t0, self.t1)
        control = self.control_observation()
        for key in ("issued", "ok", "done_in_window"):
            obs[key] += control[key]
        obs["facts"].update(control["facts"])
        obs["ledger"] = control["ledger"]
        return obs


class ControlChurnOnly(RackWorkload):
    """The rack with Raft and group commit and no datapath traffic."""

    name = "control_churn"
    sim_s_per_host_s = 0.95
    quantum_s = 0.01
    churn_pairs_per_s = 10_000.0

    def start_generators(self, duration: float) -> None:
        self.churn.start(duration)

    def generator_count(self) -> int:
        return len(self.churn.issue_times)

    def observe(self) -> dict:
        return self.control_observation()


class StorageRead(PodWorkload):
    """One pooled SSD read from the other host: 4 KB random, 8 kIOPS."""

    name = "storage_read"
    sim_s_per_host_s = 0.44
    read_fraction = 1.0
    warm_s = 0.1
    readback_blocks = 16

    def build(self) -> None:
        pod = self.pod = CXLPod(config=self.config(), mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        instance = pod.add_instance(h1, ip=SERVER_IP)
        self.raw_device = pod.add_block_device(instance, ssd)
        self.device = RecordingDevice(self.raw_device, pod.sim)
        # queue_depth is out of reach, so no arrival is dropped at the
        # generator and issued == scheduled.
        self.generator = BlockWorkload(
            pod.sim, self.device, rate_iops=8_000.0,
            read_fraction=self.read_fraction, io_blocks=1,
            address_blocks=4096, queue_depth=1 << 30,
            rng=pod.rng.get("perf/block"),
            flows=pod.flows if self.flows else None)

    def start_generators(self, duration: float) -> None:
        self.generator.start(duration)

    def generator_count(self) -> int:
        return self.generator.stats.submitted

    def after_drain(self) -> None:
        """A known pattern written, then read back through the device API."""
        pod, device = self.pod, self.raw_device
        rng = np.random.default_rng(self.seed)
        blocks = {lba: rng.bytes(device.block_size)
                  for lba in range(self.readback_blocks)}
        wrote: dict = {}
        for lba, data in blocks.items():
            device.write(lba, data, lambda s, lba=lba: wrote.update({lba: s}))
        pod.run(0.005)
        got: dict = {}
        for lba in blocks:
            device.read(lba, 1, lambda s, data, lba=lba:
                        got.update({lba: (s, data)}))
        pod.run(0.005)
        self.readback_mismatches = sum(
            1 for lba, data in blocks.items()
            if wrote.get(lba) != 0 or got.get(lba) != (0, data))

    def observe(self) -> dict:
        stats = self.generator.stats
        obs = self.device.window_accounting(self.t0, self.t1)
        obs["latencies_us"] = self.device.latencies_us(self.t0, self.t1)
        obs["facts"] = {
            "io_errors": stats.errors,
            "io_incomplete": stats.submitted - stats.completed,
            "readback_mismatches": self.readback_mismatches,
        }
        return obs


class StorageWrite(StorageRead):
    """The same pod and rate, every request a write."""

    name = "storage_write"
    sim_s_per_host_s = 0.51
    read_fraction = 0.0


class ServeMix(PodWorkload):
    """The PR 10 serving mix: three tenants, bg surging 8x mid-window."""

    name = "serve_mix"
    sim_s_per_host_s = 0.265
    quantum_s = 0.03    # thirds of the window are whole 10 ms stats bins
    warm_s = 0.1
    drain_s = 0.1
    victim = "mc"

    def build(self) -> None:
        base = OasisConfig()
        config = self.config(
            ssd=replace(base.ssd, bandwidth_gbps=0.04),
            overload=replace(base.overload, enabled=True, launch_window=2,
                             brownout_high=0.15, brownout_low=0.05))
        pod = self.pod = CXLPod(config=config, mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        instance = pod.add_instance(h1, ip=SERVER_IP)
        self.device = RecordingDevice(pod.add_block_device(instance, ssd),
                                      pod.sim)
        pod.enable_fleet_telemetry(period_s=0.002)
        capacity_iops = config.ssd.bytes_per_sec / config.ssd.block_size
        self.profiles = SERVE_PROFILES(capacity_iops)
        pod.enable_multi_tenant(
            {name: p.spec() for name, p in self.profiles.items()},
            overload=config.overload)
        self.clients = {}
        for name, profile in self.profiles.items():
            client = TenantClient(pod.sim, self.device, profile,
                                  rng=pod.rng.get(f"perf/serve/{name}"))
            pod.register_tenant_client(client)
            self.clients[name] = client
        self.checker = pod.check_invariants(interval_s=0.05)

    def start_generators(self, duration: float) -> None:
        for client in self.clients.values():
            client.start(duration)
        noisy, third = self.clients["bg"], self.window_s / 3.0
        self.pod.sim.at(self.warm_s + third, noisy.set_rate_multiplier, 8.0)
        self.pod.sim.at(self.warm_s + 2.0 * third,
                        noisy.set_rate_multiplier, 1.0)

    def generator_count(self) -> int:
        return sum(c.stats.submitted for c in self.clients.values())

    def drain(self) -> None:
        super().drain()
        self.verdict = self.checker.finish()

    def observe(self) -> dict:
        # Per-tenant conservation, generator side against device side: every
        # submission completed exactly once, as ok, shed or error.
        broken = []
        for name, client in self.clients.items():
            stats = client.stats
            seen = sum(1 for r in self.device.log if r[3] == name)
            if not (stats.submitted == seen
                    == stats.completed_ok + stats.shed + stats.errors):
                broken.append(name)
        obs = self.device.window_accounting(self.t0, self.t1)
        obs["latencies_us"] = self.device.latencies_us(
            self.t0, self.t1, tenant=self.victim)
        obs["facts"] = {
            "invariants_ok": bool(self.verdict.ok),
            "invariant_violations": len(self.verdict.violations),
            "tenants_not_conserved": broken,
            "victim_slo_us": self.profiles[self.victim].slo_us,
        }
        return obs


class ChannelSweep(Workload):
    """All four Fig 6 designs at 4 and 14 MOp/s and closed-loop saturation.

    No event kernel and no pod.  Arrivals are deterministic, so the workload
    is seedless: every seed gives the same inputs.
    """

    name = "channel_sweep"
    seeded = False
    designs = ("bypass-cache", "naive-prefetch", "invalidate-consumed",
               "invalidate-prefetched")
    loads_mops = (4.0, 14.0, None)          # None = closed-loop saturation
    messages_per_host_s = 8_800             # per point, reference box
    warm_messages = 2_000
    oasis = "invalidate-prefetched"
    target_mops = 14.0

    def __init__(self, seed: int, host_seconds: float, flows: bool = False):
        super().__init__(seed, host_seconds, flows)
        self.messages = max(1_000, 100 * round(
            host_seconds * self.messages_per_host_s / 100))
        # A saturation point needs several ring laps, so that the cold-start
        # transient is outside the part run() measures (as in sweep_designs).
        self.saturation_messages = max(
            self.messages, 4 * OasisConfig().datapath.channel_slots)
        self.points: dict = {}

    def point_messages(self, load) -> int:
        return self.saturation_messages if load is None else self.messages

    @staticmethod
    def run_point(design: str, load, messages: int):
        bench = ChannelMicrobench(design)
        interval_ns = None if load is None else 1e3 / load
        return bench, bench.run(messages, interval_ns=interval_ns)

    def setup(self) -> None:
        for design in self.designs:
            self.run_point(design, None, self.warm_messages)

    def run_slice(self, index: int) -> None:
        # One slice per point: 4 designs x 3 loads == SLICES.
        design = self.designs[index // len(self.loads_mops)]
        load = self.loads_mops[index % len(self.loads_mops)]
        self.points[(design, load)] = self.run_point(
            design, load, self.point_messages(load))

    def drain(self) -> None:
        """Nothing in flight: every run() returns after its last delivery."""
        self.scheduled = sum(self.point_messages(load)
                             for _design, load in self.points)

    def benches(self):
        return [bench for bench, _result in self.points.values()]

    def events(self) -> int:
        """The virtual-time harness's own events: sender and receiver steps.

        There is no event kernel here; each loop turn of the microbenchmark
        is one sender attempt or one receiver poll.
        """
        steps = 0
        for bench in self.benches():
            sender, receiver = bench.sender.counters, bench.receiver.counters
            steps += (sender.sent + sender.full_stalls
                      + receiver.received + receiver.empty_polls)
        return steps

    def observe(self) -> dict:
        delivered = sum(b.receiver.counters.received for b in self.benches())
        incomplete = sum(
            1 for (_design, load), (b, _result) in self.points.items()
            if not (b.sender.counters.sent == b.receiver.counters.received
                    == self.point_messages(load)))
        saturation = {design: self.points[(design, None)][1].achieved_mops
                      for design in self.designs}
        _bench, at_target = self.points[(self.oasis, self.target_mops)]
        return {
            "issued": self.scheduled, "ok": delivered, "shed": 0,
            "done_in_window": delivered,
            # run() reports percentiles over the messages after its own
            # 20 % warm-up, in delivery order (a sequence gap raises).
            "latency_summary": {"p50_us": at_target.latency_p50_us,
                                "p99_us": at_target.latency_p99_us,
                                "n": at_target.messages},
            "goodput_per_s": saturation[self.oasis] * 1e6,
            "facts": {
                "points_incomplete": incomplete,
                "saturation_mops": saturation,
            },
        }


WORKLOADS = {cls.name: cls for cls in (
    EchoCell, RackEcho, StorageRead, StorageWrite, ServeMix, ChannelSweep,
    ControlChurnOnly)}
