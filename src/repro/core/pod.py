"""CXLPod: the top-level Oasis system wiring.

This is the library's main entry point.  A pod bundles:

* its **pool groups** (:class:`PoolGroup`, DESIGN §3f): one by default,
  several side by side in a rack.  A group is one multi-headed
  :class:`~repro.mem.cxl.CXLMemoryPool`, the shared-region bookkeeping
  inside it, the hosts attached to it and their pod-wide allocator
  (optionally replicated with Raft).  A host belongs to exactly one group
  (``host.group``) and everything built for it -- buffers, channels, the
  epoch table its backends check, the allocator its drivers report to --
  comes from that group;
* hosts with non-coherent caches and network-engine frontend drivers,
* pooled NICs with backend drivers, cabled to one learning switch,
* all frontend<->backend message channels (never across groups: there is
  no shared memory to put the buffers in).

Three datapath modes regenerate the paper's comparison points:

* ``"oasis"`` -- I/O buffers in shared CXL memory, signalling over
  cross-host non-coherent message channels (the full system);
* ``"local"`` -- the Junction baseline: local-DDR buffers, local signalling,
  each host uses its own NIC;
* ``"local-cxl-buffers"`` -- Figure 11's middle bar: buffers in CXL memory
  but signalling still local.

Typical use::

    pod = CXLPod(mode="oasis")
    h0, h1 = pod.add_host(), pod.add_host()
    nic = pod.add_nic(h0)
    pod.add_nic(h1, is_backup=True)
    inst = pod.add_instance(h1, ip=make_ip(10, 0, 0, 1))   # remote NIC!
    client = pod.add_external_client(ip=make_ip(10, 0, 9, 1))
    ...
    pod.run(1.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..config import OasisConfig
from ..errors import ConfigError
from ..host.host import Host
from ..host.instance import Instance, ResourceSpec
from ..mem.cxl import CXLMemoryPool
from ..net.endpoint import ExternalEndpoint
from ..net.packet import make_ip, make_mac
from ..net.switch import LearningSwitch
from ..obs import FlowRegistry, MetricsRegistry, TelemetryScraper, Tracer, bindings
from ..overload import BrownoutController, TenantSpec
from ..overload.stage import AdmissionStage
from ..pcie.nic import SimNIC
from ..sim.core import Simulator
from ..sim.rng import RngFactory
from .allocator import AllocatorClient, PodAllocator, ShardedAllocator
from .arp import ArpRegistry
from .datapath import ChannelPair, SharedRegions
from .engine import Link
from .netengine.backend import NetBackend
from .netengine.frontend import BackendLink, NetFrontend
from .raft import DirectTransport, RaftNode

__all__ = ["CXLPod", "RackPod", "RackBuilder", "PoolGroup"]

_MODES = ("oasis", "local", "local-cxl-buffers")


@dataclass
class PoolGroup:
    """One multi-headed CXL device and what shares it (§2.3, §3.5): the
    pool, its region bookkeeping, the member hosts and their allocator."""

    name: str
    pool: CXLMemoryPool
    regions: SharedRegions
    allocator: PodAllocator
    hosts: List[Host] = field(default_factory=list)


class CXLPod:
    """A rack-scale CXL pod running the Oasis network engine."""

    def __init__(
        self,
        config: Optional[OasisConfig] = None,
        mode: str = "oasis",
    ):
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        self.config = (config or OasisConfig()).validate()
        self.mode = mode
        self.sim = Simulator()
        self.rng = RngFactory(self.config.seed)
        self.switch = LearningSwitch(self.sim)
        self.arp = ArpRegistry()
        self.hosts: List[Host] = []
        self.frontends: Dict[str, NetFrontend] = {}
        self.backends: Dict[str, NetBackend] = {}
        self.nics: Dict[str, SimNIC] = {}
        self.instances: Dict[int, Instance] = {}
        self.clients: Dict[int, ExternalEndpoint] = {}
        self.raft_nodes: List[RaftNode] = []
        self.storage_backends: Dict[str, object] = {}
        self.storage_frontends: Dict[str, object] = {}
        self._next_client_index = 200

        # Observability: every legacy counter object binds a reader into the
        # pod-wide metrics registry (observation-only; its series are
        # declared at the first scrape, so a pod that never scrapes pays
        # nothing), the tracer starts disabled (cheap boolean check on hot
        # paths) and the scraper samples the registry once started.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.sim, enabled=False)
        self.scraper = TelemetryScraper(self.sim, self.metrics)
        # Flow tracing starts disabled: instrumented hops pay a boolean/dict
        # check until enable_flow_tracing() opts a run in.
        self.flows = FlowRegistry(self.sim, enabled=False)
        self.flows.tracer = self.tracer
        # Fleet health pipeline (streaming utilization/stranding/alerts):
        # built lazily by enable_fleet_telemetry(), None while off.
        self.fleet = None
        # Overload control (bounded admission, retry budgets, breakers,
        # brownout, per-tenant WFQ): None while unarmed, so existing runs
        # replay byte-identically; once armed, the (OverloadConfig,
        # {tenant: TenantSpec}) pair every driver's stage is built from.
        self.brownout = None
        self._stage_spec = None
        #: what ``stranded_work()`` found when the pod was stopped
        self.stranded: List[str] = []
        self._load_sources: list = []

        # Topology: one pool group; ``pool``/``regions``/``allocator`` name
        # its parts (a rack adds groups and puts a router in ``allocator``).
        self.groups: List[PoolGroup] = []
        group = self._add_group()
        self.pool, self.regions = group.pool, group.regions
        self.allocator = group.allocator
        bindings.bind_scraper(self.metrics, self.scraper)
        bindings.bind_switch(self.metrics, self.switch)
        bindings.bind_tracer(self.metrics, self.tracer)
        bindings.bind_flows(self.metrics, self.flows)
        # Components with precomputed obs dispatch (a _trace/_flows alias
        # that is None while the facility is off).  enable_tracing() /
        # enable_flow_tracing() re-run the set_* binding on each so aliases
        # computed while disabled are swapped for the live object.
        self._traced: list = []
        self._flowed: list = []
        if self.config.overload.enabled:
            self.enable_overload_control()

    def _add_group(self) -> PoolGroup:
        """One more CXL pool with its regions and its own allocator."""
        pool = CXLMemoryPool(self.config.cxl)
        regions = SharedRegions(pool, self.config)
        allocator = PodAllocator(self.sim, self.config)
        # CXL-resident device metadata (§3.3.3): one 64 B line per pooled
        # device mirrors its fencing epoch into pool memory.
        allocator.epochs.attach_mirror(pool, regions.alloc(4096, "epoch-meta"))
        allocator.tracer = self.tracer
        bindings.bind_pool(self.metrics, pool)
        bindings.bind_allocator(self.metrics, allocator)
        group = PoolGroup(f"pool{len(self.groups)}", pool, regions, allocator)
        self.groups.append(group)
        return group

    def _bind_tracer(self, component) -> None:
        component.set_tracer(self.tracer)
        self._traced.append(component)

    def _bind_flows(self, component) -> None:
        component.set_flows(self.flows)
        self._flowed.append(component)

    def _drivers(self):
        """Every driver that can hold an admission stage."""
        yield from self.storage_frontends.values()
        yield from self.frontends.values()
        yield from self.backends.values()

    def _all_drivers(self):
        """Every engine driver of the pod."""
        yield from self._drivers()
        yield from self.storage_backends.values()

    def _arm(self, driver) -> None:
        """Give ``driver`` its admission stage -- the one place a driver is
        armed, whether it exists when overload control turns on or joins
        later.  A no-op while the pod is unarmed or the driver is armed."""
        if self._stage_spec is None or driver._stage is not None:
            return
        cfg, tenants = self._stage_spec
        stage = AdmissionStage(cfg, self.rng, driver.name, tenants)
        driver.arm(stage)
        if self.brownout is not None:
            self.brownout.register(stage)

    # -- topology ------------------------------------------------------------------

    def add_host(self, name: Optional[str] = None, pool: int = 0) -> Host:
        """Add a host, attached to pool group ``pool``, with a
        network-engine frontend driver."""
        if not 0 <= pool < len(self.groups):
            raise ConfigError(f"pool must be in range({len(self.groups)}), "
                              f"got {pool}")
        group = self.groups[pool]
        index = len(self.hosts)
        host = Host(self.sim, name or f"h{index}", group.pool, self.config, index)
        host.group = group
        self.hosts.append(host)
        group.hosts.append(host)

        buffer_domain = host.local if self.mode == "local" else host.shared
        if buffer_domain.is_shared:
            tx_region = group.regions.alloc_tx_region(host.name)
        else:
            # Baseline: TX region in host-local DDR.
            from ..mem.layout import Region, RegionAllocator

            tx_region = Region(1 << 30, self.config.datapath.tx_region_bytes,
                               f"tx-{host.name}-local")
        frontend = NetFrontend(self.sim, host, buffer_domain, tx_region,
                               self.arp, self.config)
        self._bind_flows(frontend)
        frontend.on_unregister = self._on_migration_unregister
        frontend.control = AllocatorClient(self.sim, group.allocator)
        self.frontends[host.name] = frontend
        group.allocator.register_frontend(host.name, frontend)
        frontend.start()
        frontend.start_monitors()
        bindings.bind_cache(self.metrics, host.shared.cache, host.name,
                            domain="cxl")
        bindings.bind_cache(self.metrics, host.local.cache, host.name,
                            domain="ddr")
        bindings.bind_driver(self.metrics, frontend)
        self._arm(frontend)

        # Connect the new frontend to every existing backend (oasis mode).
        if self.mode == "oasis":
            for backend in self.backends.values():
                self._wire(frontend, backend)
        return host

    def add_nic(self, host: Host, is_backup: bool = False,
                name: Optional[str] = None) -> SimNIC:
        """Attach a NIC to ``host``, with its backend driver, and pool it."""
        group = host.group
        mac = make_mac(host.index, len(host.devices))
        device_index = sum(1 for n in self.nics.values() if n.host is host)
        default_name = (f"nic-{host.name}" if device_index == 0
                        else f"nic-{host.name}-{device_index}")
        nic = SimNIC(self.sim, host, mac, self.config.nic,
                     name=self._new_device_name(name or default_name))
        nic.connect(self.switch.new_port())
        self.nics[nic.name] = nic

        rx_local = self.mode == "local"
        rx_domain = host.local if rx_local else host.shared
        if rx_local:
            from ..mem.layout import Region

            rx_region = Region(8 << 30, self.config.datapath.rx_region_bytes,
                               f"rx-{nic.name}-local")
        else:
            rx_region = group.regions.alloc_rx_region(nic.name)
        backend = NetBackend(self.sim, host, nic, rx_domain, rx_region,
                             self.config, tx_buffers_local=(self.mode == "local"))
        backend.control = AllocatorClient(self.sim, group.allocator)
        backend.epochs = group.allocator.epochs
        self._bind_tracer(nic)
        self._bind_tracer(backend)
        self._bind_flows(nic)
        self._bind_flows(backend)
        bindings.bind_nic(self.metrics, nic)
        bindings.bind_driver(self.metrics, backend)
        self._arm(backend)
        self.backends[nic.name] = backend
        group.allocator.register_backend(
            backend, self.config.nic.bandwidth_gbps, is_backup=is_backup)
        backend.start()
        backend.start_monitors()

        if self.mode == "oasis":
            for frontend in self.frontends.values():
                self._wire(frontend, backend)
        else:
            # Baseline modes: only the colocated frontend talks to this NIC.
            self._wire(self.frontends[host.name], backend)
        return nic

    def _new_device_name(self, name: str) -> str:
        """Leases, fencing epochs and telemetry are keyed by the bare device
        name: a second device of either kind may not reuse one."""
        if name in self.nics or name in self.storage_backends:
            raise ConfigError(f"device name {name!r} is already in use")
        return name

    def _channel_pair(self, name: str, host_a: Host, host_b: Host,
                      message_bytes: int) -> ChannelPair:
        """One traced, metered channel each way between drivers on two hosts
        of one group: rings in the group's shared CXL memory in oasis mode,
        local DDR rings otherwise."""
        if self.mode == "oasis":
            pair = ChannelPair.over_cxl(
                self.sim, host_a.group.regions, host_a.shared.cache,
                host_b.shared.cache, name,
                message_size=message_bytes,
                slots=self.config.datapath.channel_slots,
            )
        else:
            pair = ChannelPair.local(self.sim, name)
        self._bind_tracer(pair.a_to_b)
        self._bind_tracer(pair.b_to_a)
        bindings.bind_channel_pair(self.metrics, pair)
        return pair

    def _wire(self, frontend: NetFrontend, backend: NetBackend) -> None:
        """Create the per-(frontend, backend) channel pair (§3.2.2)."""
        if frontend.host.group is not backend.host.group:
            return  # never wire across pools: no shared buffers to post into
        pair = self._channel_pair(
            f"{frontend.host.name}-{backend.nic.name}",
            frontend.host, backend.host,
            self.config.datapath.net_message_bytes)
        frontend.connect(BackendLink(
            name=backend.nic.name, tx=pair.a_to_b, rx=pair.b_to_a,
            rx_domain=backend.rx_domain, nic_mac=backend.nic.mac,
            remote=frontend.host is not backend.host,
        ))
        backend.connect(Link(frontend.host.name, tx=pair.b_to_a,
                             rx=pair.a_to_b))

    # -- instances and clients ----------------------------------------------------------

    def add_instance(
        self,
        host: Host,
        ip: int,
        name: Optional[str] = None,
        spec: Optional[ResourceSpec] = None,
        nic: Optional[SimNIC] = None,
    ) -> Instance:
        """Launch an instance; the allocator picks its NIC unless given."""
        spec = spec or ResourceSpec()
        instance = Instance(self.sim, name or f"inst-{len(self.instances)}",
                            host, ip, spec)
        self.instances[ip] = instance
        frontend = self.frontends[host.name]
        allocator = host.group.allocator

        if nic is not None:
            self._same_group(host, nic)
        primary_name, backup_name = allocator.place_instance(
            ip, host.name, spec.nic_gbps,
            device=nic.name if nic is not None else None)
        epoch = allocator.epochs.entry(primary_name, ip) or 0

        primary_backend = self.backends[primary_name]
        primary_backend.register_instance(ip, host.name)
        backup_link = None
        if backup_name is not None and self.mode == "oasis":
            # Register with the backup NIC at launch so failover is instant.
            backup_backend = self.backends[backup_name]
            backup_backend.register_instance(ip, host.name)
            backup_link = frontend.link(backup_name)
        frontend.register_instance(instance, frontend.link(primary_name),
                                   backup=backup_link, epoch=epoch)
        return instance

    @staticmethod
    def _same_group(host: Host, device) -> None:
        if device.host.group is not host.group:
            raise ConfigError(
                f"{device.name} is not reachable from {host.name}: instance "
                "and device must share a CXL pool")

    # -- storage engine (§3.4) ------------------------------------------------------

    def add_ssd(self, host: Host, name: Optional[str] = None):
        """Attach an NVMe SSD to ``host`` with a storage backend driver."""
        from ..pcie.ssd import SimSSD
        from .storage.backend import StorageBackend

        ssd = SimSSD(self.sim, host, self.config.ssd,
                     name=self._new_device_name(
                         name or f"ssd-{host.name}-{len(host.devices)}"))
        backend = StorageBackend(self.sim, host, ssd, self.config)
        self.storage_backends[ssd.name] = backend
        allocator = host.group.allocator
        backend.control = AllocatorClient(self.sim, allocator)
        backend.epochs = allocator.epochs
        self._bind_tracer(ssd)
        self._bind_flows(ssd)
        self._bind_flows(backend)
        bindings.bind_ssd(self.metrics, ssd)
        bindings.bind_driver(self.metrics, backend)
        allocator.register_backend(
            backend, self.config.ssd.capacity_bytes / 1e12, kind="ssd")
        backend.start()
        backend.start_monitors()
        return ssd

    def _storage_frontend(self, host: Host):
        from .storage.frontend import StorageFrontend

        frontend = self.storage_frontends.get(host.name)
        if frontend is None:
            group = host.group
            domain = host.local if self.mode == "local" else host.shared
            if domain.is_shared:
                region = group.regions.alloc(256 << 20, f"sbuf-{host.name}")
            else:
                from ..mem.layout import Region

                region = Region(12 << 30, 256 << 20, f"sbuf-{host.name}-local")
            frontend = StorageFrontend(self.sim, host, domain, region, self.config)
            self._bind_flows(frontend)
            frontend.control = AllocatorClient(self.sim, group.allocator)
            frontend.start()
            bindings.bind_driver(self.metrics, frontend)
            self._arm(frontend)
            self.storage_frontends[host.name] = frontend
            group.allocator.register_frontend(host.name, frontend, kind="ssd")
        return frontend

    def add_block_device(self, instance: Instance, ssd=None):
        """Give ``instance`` a block device backed by ``ssd``.

        When ``ssd`` is omitted the pod-wide allocator places the instance
        (host-local SSD first, then the least-loaded drive in the pod, §3.5).
        """
        allocator = instance.host.group.allocator
        if ssd is not None:
            self._same_group(instance.host, ssd)
        name, _backup = allocator.place_instance(
            instance.ip, instance.host.name, instance.spec.ssd_tb,
            kind="ssd", device=ssd.name if ssd is not None else None)
        ssd = self.storage_backends[name].ssd
        epoch = allocator.epochs.entry(name, instance.ip) or 0
        frontend = self._storage_frontend(instance.host)
        frontend.sync_instance(instance.ip, name, epoch)
        if ssd.name not in frontend._links:
            pair = self._channel_pair(
                f"st-{instance.host.name}-{ssd.name}",
                instance.host, ssd.host,
                self.config.datapath.storage_message_bytes)
            frontend.connect(Link(ssd.name, tx=pair.a_to_b, rx=pair.b_to_a))
            self.storage_backends[ssd.name].connect(
                Link(instance.host.name, tx=pair.b_to_a, rx=pair.a_to_b))
        return frontend.make_device(instance, ssd.name, self.config.ssd.block_size)

    def add_external_client(self, ip: int, name: Optional[str] = None,
                            stack_latency_us: float = 0.7) -> ExternalEndpoint:
        """Attach a bare-metal load driver straight to the switch (§5)."""
        index = self._next_client_index
        self._next_client_index += 1
        client = ExternalEndpoint(
            self.sim, name or f"client-{index}", make_mac(index), ip,
            self.switch.new_port(), stack_latency_us,
        )
        client.set_arp(self.arp)
        self.arp.announce(ip, client.mac)
        self.clients[ip] = client
        return client

    # -- control-plane replication --------------------------------------------------------

    def enable_raft(self, replicas: int = 3) -> None:
        """Replicate the allocator with Raft across ``replicas`` hosts.

        Each node carries a full replica of the allocator state machine;
        commands committed through the log apply on every replica, and the
        leader additionally runs the external side effects (exactly once,
        deduplicated by command ID across leader changes).  Every pool
        group gets its own cluster, strided across the group's own hosts.
        """
        if self.raft_nodes:
            raise ConfigError("enable_raft() was already called on this pod")
        for group in self.groups:
            # A lone allocator's nodes are alloc-0..; behind a rack's router
            # they carry the group name.
            prefix = ("alloc" if group.allocator is self.allocator
                      else f"alloc-{group.name}")
            transport = DirectTransport(self.sim)
            ids = [f"{prefix}-{i}" for i in range(replicas)]
            nodes = []
            for i, node_id in enumerate(ids):
                # The first node gets a short election timeout so it
                # (deterministically) wins the first election.
                timeouts = (60.0, 90.0) if i == 0 else (150.0, 300.0)
                node = RaftNode(
                    self.sim, node_id, ids, transport,
                    apply_cb=None,
                    election_timeout_ms=timeouts,
                    rng=self.rng.get(f"raft-{node_id}"),
                )
                node.tracer = self.tracer
                # Pin each replica to one of the group's hosts so host-crash
                # faults take its control-plane replica down with it.  With
                # more hosts than replicas, stride the replicas evenly
                # across the host list -- packing them onto the first few
                # hosts (the old ``i % len``) put a log majority on one rack
                # slice, so a single host crash could stall the control plane.
                node.host = self._replica_host(i, replicas,
                                               group.hosts or self.hosts)
                bindings.bind_raft_node(self.metrics, node)
                self.raft_nodes.append(node)
                nodes.append(node)
            group.allocator.attach_raft_cluster(nodes)
            for node in nodes:
                node.start()

    @staticmethod
    def _replica_host(i: int, replicas: int, hosts: List[Host]):
        if not hosts:
            return None
        if len(hosts) >= replicas:
            return hosts[(i * len(hosts)) // replicas]
        return hosts[i % len(hosts)]

    def set_fencing(self, enabled: bool) -> None:
        """Toggle epoch fencing at every backend (for overhead comparisons).

        Disabling detaches the epoch table entirely, so the data path pays
        zero extra cost; re-enabling re-attaches the live table.
        """
        for backend in (*self.backends.values(),
                        *self.storage_backends.values()):
            backend.epochs = (backend.host.group.allocator.epochs if enabled
                              else None)
            backend.fencing_enabled = enabled

    # -- failure injection -------------------------------------------------------------------

    def _on_migration_unregister(self, ip: int, old_link_name: str) -> None:
        """Grace period over: release the instance's old-NIC registration."""
        backend = self.backends.get(old_link_name)
        if backend is not None:
            backend.unregister_instance(ip)

    def fail_switch_port(self, nic: SimNIC) -> None:
        """The paper's failure injection: disable the NIC's switch port."""
        nic.port.set_enabled(False)

    def inject_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` against this pod.

        Resolves the plan's fault times through the pod's seeded RNG, wires
        the injector's event counters into the metrics registry, and returns
        the armed :class:`~repro.faults.injector.FaultInjector`.
        """
        from ..faults.injector import FaultInjector

        injector = FaultInjector(self, plan)
        injector.arm()
        bindings.bind_injector(self.metrics, injector)
        self.fault_injector = injector
        return injector

    def check_invariants(self, interval_s: Optional[float] = None):
        """Install the chaos invariant probes; returns the checker.

        With ``interval_s`` the continuous invariants are also re-evaluated
        periodically; call ``finish()`` at the end of the run for the verdict.
        """
        from ..faults.invariants import InvariantChecker

        checker = InvariantChecker(self, getattr(self, "fault_injector", None))
        checker.install()
        if interval_s is not None:
            checker.start(interval_s)
        return checker

    # -- overload control (admission, retry budgets, breakers, brownout) ------------

    def enable_overload_control(self, overload=None):
        """Arm overload control across both engines (off by default).

        Gives every storage/net frontend and net backend -- including ones
        added later -- an :class:`~repro.overload.stage.AdmissionStage`
        (bounded admission, the retry budget, per-device circuit breakers)
        and, once fleet telemetry is on, starts the brownout controller
        that sheds low-priority work off the fleet pipeline's
        queue-saturation gauges.  ``config.overload.enabled`` arms the pod the same way at
        construction.

        ``overload`` overrides ``config.overload``; either way the config
        is force-enabled for this pod.  Calling this on an armed pod is a
        no-op (the armed config is returned).  Unarmed pods pay only a
        ``None`` check on the hot paths, so runs without this call replay
        byte-identically against older builds.
        """
        if self._stage_spec is not None:
            return self._stage_spec[0]
        cfg = overload if overload is not None else self.config.overload
        if not cfg.enabled:
            cfg = replace(cfg, enabled=True)
        cfg.validate()
        self._stage_spec = (cfg, {})
        for driver in self._drivers():
            self._arm(driver)
        self._start_brownout()
        return cfg

    def _start_brownout(self) -> None:
        """Start the saturation-driven brownout loop (needs fleet health)."""
        if (self._stage_spec is None or self.fleet is None
                or self.brownout is not None):
            return
        cfg = self._stage_spec[0]
        self.brownout = BrownoutController(
            self.sim, self.fleet,
            high=cfg.brownout_high, low=cfg.brownout_low,
            period_s=cfg.brownout_period_s)
        for driver in self._drivers():
            self.brownout.register(driver._stage)
        self.brownout.start()

    def register_load_source(self, client) -> None:
        """Register an open-loop generator as an ``overload.surge`` target."""
        self._load_sources.append(client)

    # -- multi-tenant QoS serving (per-tenant WFQ, rate guarantees) -----------------

    def enable_multi_tenant(self, tenants, overload=None):
        """Register tenants for weighted-fair queueing at every driver.

        ``tenants`` maps tenant name to
        :class:`~repro.overload.TenantSpec` (weight, optional guaranteed
        rate).  Overload control is armed first when it is not already on
        (``overload`` as for :meth:`enable_overload_control`); the tenants
        then *extend* each live admission stage with one lane apiece --
        queued work stays queued -- and drivers added later inherit the
        set.  Off by default: pods that never call this keep the single
        shared lane and replay byte-identically.
        """
        specs = {}
        for name, spec in tenants.items():
            if not isinstance(spec, TenantSpec):
                spec = TenantSpec(**spec)
            spec.validate()
            specs[name] = spec
        self.enable_overload_control(overload)
        self._stage_spec[1].update(specs)
        for driver in self._drivers():
            driver._stage.register(specs)
        return specs

    def register_tenant_client(self, client) -> None:
        """Register a tenant load generator for fleet telemetry export."""
        self._load_sources.append(client)
        bindings.bind_tenant_client(self.metrics, client)

    # -- observability -----------------------------------------------------------------------

    def enable_tracing(self, max_events: int = 2_000_000,
                       categories=None) -> Tracer:
        """Turn on the pod tracer (optionally limited to some categories)."""
        self.tracer.enabled = True
        self.tracer.max_events = max_events
        self.tracer.categories = (set(categories) if categories is not None
                                  else None)
        # Swap the precomputed None-dispatch for the live tracer on every
        # component bound while tracing was still off.
        for component in self._traced:
            component.set_tracer(self.tracer)
        return self.tracer

    def enable_flow_tracing(self, max_records: int = 100_000) -> FlowRegistry:
        """Turn on end-to-end flow tracing: every request started with the
        pod's registry yields a record attributing its latency across hops."""
        self.flows.enabled = True
        self.flows.max_records = max_records
        # Swap the precomputed None-dispatch for the live registry on every
        # component bound while flow tracing was still off.
        for component in self._flowed:
            component.set_flows(self.flows)
        return self.flows

    def start_telemetry(self, period_s: Optional[float] = None) -> TelemetryScraper:
        """Start sampling the metrics registry at ``period_s`` of sim time
        (idempotent; asking a running scraper for another period raises)."""
        return self.scraper.start(period_s)

    def enable_fleet_telemetry(self, period_s: float = 0.01, rules=None):
        """Turn on the streaming fleet-health pipeline (off by default).

        Builds a :class:`~repro.obs.fleet.FleetHealth` sized from this
        pod's configured device/link capacities, subscribes it to the
        scraper and starts the scraper at ``period_s`` (a
        :class:`ConfigError` if the scraper already runs at another period).
        The pipeline only reads the registry (its alert transitions are
        counted by its :class:`~repro.obs.fleet.AlertEngine` and marked in
        the tracer) and holds one previous value vector; ``pod.scraper``
        retains up to ``max_snapshots`` scrapes at 8 bytes per series each.
        Returns the pipeline; query it through its methods
        (``pod.fleet.as_dict()``).

        ``rules`` overrides :data:`~repro.obs.fleet.DEFAULT_ALERT_RULES`.
        """
        from ..obs.fleet import FleetHealth

        if self.fleet is not None:
            return self.fleet
        self.start_telemetry(period_s)     # first: may refuse the period
        self.fleet = FleetHealth(
            nic_bytes_per_sec=self.config.nic.bytes_per_sec,
            ssd_bytes_per_sec=self.config.ssd.bytes_per_sec,
            link_bytes_per_sec=self.config.cxl.link_bytes_per_sec,
            nic_queue_depth=self.config.nic.tx_queue_depth,
            ssd_queue_depth=self.config.ssd.queue_depth,
            rules=rules,
            tracer=self.tracer,
        )
        self.scraper.subscribe(self.fleet.ingest)
        self._start_brownout()
        return self.fleet

    # -- running -----------------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    # -- measurement helpers --------------------------------------------------------------------

    def cxl_traffic_by_category(self) -> Dict[str, int]:
        """Pod-wide CXL link bytes by category (payload/message/counter)."""
        merged: Dict[str, int] = {}
        for group in self.groups:
            for stats in group.pool.link_stats.values():
                for category, nbytes in stats.by_category().items():
                    merged[category] = merged.get(category, 0) + nbytes
        return merged

    def stranded_work(self) -> List[str]:
        """Work a parked driver's next pass would find although no ring is
        on its way, one line per driver -- empty at every instant unless a
        work source forgot to ring (DESIGN §3e); the invariant checker
        reports it as ``no-stranded-work``."""
        found = ((driver.name, driver.stranded())
                 for driver in self._all_drivers())
        return [f"{name}: {n} items a pass would find, no ring pending"
                for name, n in found if n]

    def stop(self) -> None:
        self.stranded = self.stranded_work()    # judged while drivers still poll
        for driver in self._all_drivers():
            driver.stop()
            driver.stop_monitors()
        if self.brownout is not None:
            self.brownout.stop()
        self.allocator.stop()


# -- rack scale -----------------------------------------------------------------------


class RackPod(CXLPod):
    """A rack-scale pod: N hosts across M CXL pools, sharded control plane.

    The same pod with ``pools`` pool groups instead of one.  Hosts join a
    group through ``add_host(pool=k)``; frontends are wired only to
    same-group backends, so a placement never crosses a pool boundary --
    the datapath's shared buffers live in exactly one pool.  Each group's
    allocator is a full :class:`~repro.core.allocator.PodAllocator` (own
    state machine, epoch table and optional Raft cluster); ``allocator`` is
    the :class:`~repro.core.allocator.ShardedAllocator` router over them.

    ``port_limit`` models the multi-headed device's finite head count: a
    group's placement policy refuses to attach a device to more than
    ``port_limit`` distinct hosts.  Always ``"oasis"`` mode -- the rack
    regime only exists with pooled devices.
    """

    def __init__(
        self,
        config: Optional[OasisConfig] = None,
        pools: int = 1,
        port_limit: Optional[int] = None,
    ):
        if pools < 1:
            raise ConfigError(f"pools must be >= 1, got {pools}")
        super().__init__(config=config, mode="oasis")
        for _ in range(1, pools):
            self._add_group()
        for group in self.groups:
            group.allocator.policy.port_limit = port_limit
        self.allocator = ShardedAllocator(
            {group.name: group.allocator for group in self.groups})


class RackBuilder:
    """Declarative rack topology -> a fully wired :class:`RackPod`.

    Hosts are block-assigned to pools (hosts ``0..k-1`` to ``pool0`` and so
    on), every host gets ``nics_per_host`` pooled NICs and ``ssds_per_host``
    SSDs, and each pool designates ``backup_nics_per_pool`` additional NICs
    as failover backups.  The defaults build the ROADMAP's 32-host rack
    with 224 pooled devices::

        pod = RackBuilder().build()            # 32 hosts, 4 pools, K=4
        pod = RackBuilder(hosts=8, pools=2).build()   # CI-sized slice
    """

    def __init__(
        self,
        hosts: int = 32,
        pools: int = 4,
        nics_per_host: int = 2,
        ssds_per_host: int = 1,
        backup_nics_per_pool: int = 1,
        port_limit: Optional[int] = 4,
        config: Optional[OasisConfig] = None,
    ):
        if hosts < 1:
            raise ConfigError(f"hosts must be >= 1, got {hosts}")
        if pools < 1 or pools > hosts:
            raise ConfigError(
                f"need 1 <= pools <= hosts, got pools={pools} hosts={hosts}")
        if nics_per_host < 1:
            raise ConfigError("nics_per_host must be >= 1")
        if ssds_per_host < 0 or backup_nics_per_pool < 0:
            raise ConfigError(
                f"device counts must be >= 0, got ssds_per_host="
                f"{ssds_per_host} backup_nics_per_pool={backup_nics_per_pool}")
        if port_limit is not None and port_limit < 1:
            raise ConfigError(
                f"port_limit must be >= 1 or None (no limit), got {port_limit}")
        self.hosts = hosts
        self.pools = pools
        self.nics_per_host = nics_per_host
        self.ssds_per_host = ssds_per_host
        self.backup_nics_per_pool = backup_nics_per_pool
        self.port_limit = port_limit
        self.config = config

    def device_count(self) -> int:
        return (self.hosts * (self.nics_per_host + self.ssds_per_host)
                + self.pools * self.backup_nics_per_pool)

    def build(self) -> RackPod:
        pod = RackPod(config=self.config, pools=self.pools,
                      port_limit=self.port_limit)
        per_pool = (self.hosts + self.pools - 1) // self.pools
        for i in range(self.hosts):
            pod.add_host(pool=min(i // per_pool, self.pools - 1))
        for group in pod.groups:
            for host in group.hosts:
                for _ in range(self.nics_per_host):
                    pod.add_nic(host)
                for _ in range(self.ssds_per_host):
                    pod.add_ssd(host)
            for b in range(self.backup_nics_per_pool):
                if group.hosts:
                    pod.add_nic(group.hosts[b % len(group.hosts)],
                                is_backup=True)
        return pod
