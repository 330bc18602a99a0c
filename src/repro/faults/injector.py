"""Apply a :class:`~repro.faults.plan.FaultPlan` to a running pod.

The injector turns declarative fault specs into concrete mutations of the
simulated hardware -- CXL link derates, torn writebacks, NIC/SSD failures,
fabric drops, host crashes -- at deterministic sim times, and records every
injection/recovery in an ordered event log.  Two runs with the same pod seed
and the same plan produce byte-identical event logs, which is what the
replay regression tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from .plan import FaultPlan, ResolvedFault

__all__ = ["FaultInjector", "FaultEvent"]


class FaultEvent:
    """One injector action (an injection or a recovery)."""

    __slots__ = ("time", "kind", "target", "phase", "detail")

    def __init__(self, time: float, kind: str, target: str, phase: str,
                 detail: str = ""):
        self.time = time
        self.kind = kind
        self.target = target
        self.phase = phase          # "inject" or "recover"
        self.detail = detail

    def signature(self) -> Tuple:
        return (round(self.time, 9), self.kind, self.target, self.phase,
                self.detail)

    def __repr__(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return (f"[{self.time * 1e3:10.3f} ms] {self.phase:<7} "
                f"{self.kind} -> {self.target or '*'}{extra}")


class FaultInjector:
    """Schedules and applies the faults of one plan against one pod."""

    def __init__(self, pod, plan: FaultPlan):
        self.pod = pod
        self.plan = plan
        self.resolved: List[ResolvedFault] = []
        self.events: List[FaultEvent] = []
        self.injected: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}
        #: Pool line indices damaged by writeback faults -- invariant checks
        #: over memory contents must treat these as expected corruption.
        self.lost_writeback_lines: Set[int] = set()
        self._armed = False

    # -- scheduling ----------------------------------------------------------

    def arm(self) -> List[ResolvedFault]:
        """Resolve the plan against the pod's RNG and schedule every fault."""
        if self._armed:
            raise ConfigError("fault injector already armed")
        self._armed = True
        self.resolved = self.plan.resolve(self.pod.rng)
        for rf in self.resolved:
            self.pod.sim.at(rf.time, self._apply, rf)
        return self.resolved

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, phase: str, kind: str, target: str, detail: str = "") -> None:
        event = FaultEvent(self.pod.sim.now, kind, target, phase, detail)
        self.events.append(event)
        counts = self.injected if phase == "inject" else self.recovered
        counts[kind] = counts.get(kind, 0) + 1
        self.pod.tracer.instant(f"fault.{kind}", category="fault",
                                track="injector", target=target, phase=phase)

    # -- target resolution ---------------------------------------------------

    def _nic(self, target: Optional[str]):
        nics = list(self.pod.nics.values())
        if target is None:
            if len(nics) == 1:
                return nics[0]
            raise ConfigError("nic fault needs a target (pod has "
                              f"{len(nics)} NICs)")
        if target in self.pod.nics:
            return self.pod.nics[target]
        if target.isdigit() and int(target) < len(nics):
            return nics[int(target)]
        raise ConfigError(f"unknown nic target {target!r}")

    def _host(self, target: Optional[str]):
        hosts = self.pod.hosts
        if target is None:
            if len(hosts) == 1:
                return hosts[0]
            raise ConfigError("host fault needs a target (pod has "
                              f"{len(hosts)} hosts)")
        for host in hosts:
            if host.name == target:
                return host
        if target.isdigit() and int(target) < len(hosts):
            return hosts[int(target)]
        raise ConfigError(f"unknown host target {target!r}")

    def _ssd(self, target: Optional[str]):
        backends = self.pod.storage_backends
        if target is None:
            if len(backends) == 1:
                return next(iter(backends.values())).ssd
            raise ConfigError("ssd fault needs a target (pod has "
                              f"{len(backends)} SSDs)")
        if target in backends:
            return backends[target].ssd
        ssds = [b.ssd for b in backends.values()]
        if target.isdigit() and int(target) < len(ssds):
            return ssds[int(target)]
        raise ConfigError(f"unknown ssd target {target!r}")

    # -- dispatch ------------------------------------------------------------

    def _apply(self, rf: ResolvedFault) -> None:
        spec = rf.spec
        handler = getattr(self, "_apply_" + spec.kind.replace(".", "_"))
        handler(spec)

    def _schedule_recovery(self, spec, fn, *args) -> None:
        if spec.duration is not None:
            self.pod.sim.schedule(spec.duration, fn, *args)

    # CXL link ---------------------------------------------------------------

    def _link_fault(self, spec, detail: str, derate: float, extra_s: float = 0.0) -> None:
        """Degrade the target's link on its own group's pool, or every pool's links."""
        target = None if spec.target is None else self._host(spec.target)
        host = target.name if target else None
        pools = [target.group.pool] if target else [g.pool for g in self.pod.groups]
        for pool in pools:
            pool.set_link_fault(host, derate=derate, extra_s=extra_s)
        self._record("inject", spec.kind, host or "*", detail)
        self._schedule_recovery(spec, self._recover_link, spec.kind, host, pools)

    def _apply_cxl_latency_spike(self, spec) -> None:
        extra_us = float(spec.params.get("extra_us", 2.0))
        self._link_fault(spec, f"+{extra_us}us", 1.0, extra_us * 1e-6)

    def _apply_cxl_throttle(self, spec) -> None:
        factor = float(spec.params.get("factor", 8.0))
        self._link_fault(spec, f"x{factor}", factor)

    def _recover_link(self, kind: str, host: Optional[str], pools) -> None:
        for pool in pools:
            pool.clear_link_fault(host)
        self._record("recover", kind, host or "*")

    # Cache ------------------------------------------------------------------

    def _apply_cache_writeback_loss(self, spec) -> None:
        host = self._host(spec.target)
        count = int(spec.params.get("count", 1))
        mode = spec.params.get("mode", "drop")

        def on_fault(index: int, category: str, fault_mode: str) -> None:
            self.lost_writeback_lines.add(index)
            self._record("inject", "cache.writeback_loss", host.name,
                         f"line={index} mode={fault_mode}")

        host.shared.cache.inject_writeback_fault(count=count, mode=mode,
                                                 on_fault=on_fault)

    # NIC --------------------------------------------------------------------

    def _apply_nic_fail(self, spec) -> None:
        nic = self._nic(spec.target)
        nic.fail("fault-injection")
        self._record("inject", spec.kind, nic.name)
        self._schedule_recovery(spec, self._recover_device, spec.kind, nic)

    def _apply_nic_dma_abort(self, spec) -> None:
        nic = self._nic(spec.target)
        count = int(spec.params.get("count", 1))
        nic.inject_dma_abort(count)
        self._record("inject", spec.kind, nic.name, f"count={count}")

    # SSD --------------------------------------------------------------------

    def _apply_ssd_fail(self, spec) -> None:
        ssd = self._ssd(spec.target)
        ssd.fail("fault-injection")
        self._record("inject", spec.kind, ssd.name)
        self._schedule_recovery(spec, self._recover_device, spec.kind, ssd)

    def _apply_ssd_media_error(self, spec) -> None:
        ssd = self._ssd(spec.target)
        count = int(spec.params.get("count", 1))
        ssd.inject_media_error(count)
        self._record("inject", spec.kind, ssd.name, f"count={count}")

    def _recover_device(self, kind: str, device) -> None:
        device.restore()
        self._record("recover", kind, device.name)

    # Switch fabric ----------------------------------------------------------

    def _apply_switch_drop(self, spec) -> None:
        count = int(spec.params.get("count", 1))
        self.pod.switch.inject_drop(count)
        self._record("inject", spec.kind, self.pod.switch.name, f"count={count}")

    def _apply_switch_duplicate(self, spec) -> None:
        count = int(spec.params.get("count", 1))
        self.pod.switch.inject_duplicate(count)
        self._record("inject", spec.kind, self.pod.switch.name, f"count={count}")

    def _apply_switch_port_down(self, spec) -> None:
        nic = self._nic(spec.target)
        nic.port.set_enabled(False)
        self._record("inject", spec.kind, nic.name)
        self._schedule_recovery(spec, self._recover_switch_port, spec.kind, nic)

    def _recover_switch_port(self, kind: str, nic) -> None:
        nic.port.set_enabled(True)
        self._record("recover", kind, nic.name)

    # Host crash -------------------------------------------------------------

    def _host_drivers(self, host) -> list:
        drivers = []
        frontend = self.pod.frontends.get(host.name)
        if frontend is not None:
            drivers.append(frontend)
        sfe = self.pod.storage_frontends.get(host.name)
        if sfe is not None:
            drivers.append(sfe)
        for backend in self.pod.backends.values():
            if backend.host is host:
                drivers.append(backend)
        for backend in self.pod.storage_backends.values():
            if backend.host is host:
                drivers.append(backend)
        return drivers

    def _apply_host_crash(self, spec) -> None:
        host = self._host(spec.target)
        for device in host.devices:
            if not device.failed:
                device.fail("host-crash")
        for driver in self._host_drivers(host):
            driver.stop()
            driver.stop_monitors()
        for node in self.pod.raft_nodes:
            if getattr(node, "host", None) is host and node.alive:
                node.crash()
        self._record("inject", spec.kind, host.name,
                     f"devices={len(host.devices)}")
        self._schedule_recovery(spec, self._recover_host, spec.kind, host)

    def _recover_host(self, kind: str, host) -> None:
        for device in host.devices:
            if device.failed:
                device.restore()
        for driver in self._host_drivers(host):
            driver.start()
            driver.start_monitors()
            driver.kick()
        for node in self.pod.raft_nodes:
            if getattr(node, "host", None) is host and not node.alive:
                node.restart()
        self._record("recover", kind, host.name)

    # Control plane ----------------------------------------------------------

    def _apply_raft_leader_crash(self, spec) -> None:
        leader = None
        for node in self.pod.raft_nodes:
            if node.alive and node.is_leader:
                leader = node
                break
        if leader is None:
            self._record("inject", spec.kind, "*", "no-leader")
            return
        leader.crash()
        self._record("inject", spec.kind, leader.node_id)
        self._schedule_recovery(spec, self._recover_raft_node, spec.kind,
                                leader)

    def _recover_raft_node(self, kind: str, node) -> None:
        node.restart()
        self._record("recover", kind, node.node_id)

    def _apply_notify_delay(self, spec) -> None:
        host = self._host(spec.target)
        extra_s = float(spec.params.get("extra_s", 0.05))
        host.group.allocator.notify.delay_extra(host.name, extra_s)
        self._record("inject", spec.kind, host.name, f"+{extra_s}s")
        self._schedule_recovery(spec, self._recover_notify_delay, spec.kind,
                                host)

    def _recover_notify_delay(self, kind: str, host) -> None:
        host.group.allocator.notify.clear_delay(host.name)
        self._record("recover", kind, host.name)

    def _apply_notify_drop(self, spec) -> None:
        host = self._host(spec.target)
        count = int(spec.params.get("count", 1))
        host.group.allocator.notify.drop_next(host.name, count)
        self._record("inject", spec.kind, host.name, f"count={count}")

    def _apply_report_duplicate(self, spec) -> None:
        nic = self._nic(spec.target)
        count = int(spec.params.get("count", 1))
        for _ in range(count):
            nic.host.group.allocator.on_failure_report(nic.name)
        self._record("inject", spec.kind, nic.name, f"count={count}")

    # Overload ---------------------------------------------------------------

    def _apply_overload_surge(self, spec) -> None:
        """Multiply every registered open-loop source's arrival rate.

        Drives offered load past capacity for ``duration`` seconds; the
        sources keep queueing arrivals independently of completions, so
        whether the pod sheds or collapses is entirely up to its (enabled
        or disabled) overload control.
        """
        factor = float(spec.params.get("factor", 1.5))
        sources = list(getattr(self.pod, "_load_sources", []))
        if not sources:
            self._record("inject", spec.kind, "*", "no-load-sources")
            return
        for source in sources:
            source.set_rate_multiplier(factor)
        self._record("inject", spec.kind, "*",
                     f"x{factor} sources={len(sources)}")
        self._schedule_recovery(spec, self._recover_overload_surge,
                                spec.kind, sources)

    def _recover_overload_surge(self, kind: str, sources) -> None:
        for source in sources:
            source.set_rate_multiplier(1.0)
        self._record("recover", kind, "*")
