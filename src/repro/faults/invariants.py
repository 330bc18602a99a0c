"""Continuously-evaluated system invariants for chaos runs.

The checker wires itself into a pod (wrapping descriptor-ring post/complete
callbacks, observation-only) and then asserts, both periodically during the
run and at the end, the properties that must survive *any* fault schedule:

* **completion conservation** -- descriptor rings never lose or duplicate a
  completion: everything posted to a NIC TX ring or SSD submission queue
  completes exactly once (possibly with an error status), and nothing
  completes that was never posted;
* **shed conservation** -- with overload control armed, load shedding may
  *refuse* work but never lose or double-count it: at every storage
  frontend, ``submitted == completed + in_flight + shed + gave_up``
  (give-ups are folded into the error completions);
* **ring bounds** -- no ring ever exceeds its depth, completions never
  outrun posts;
* **buffer conservation** -- RX buffer pools satisfy
  ``available + outstanding == capacity``; frontends eventually free every
  request buffer (no leaks after settle);
* **allocator accounting** -- allocated bandwidth never goes negative, no
  leases remain on failed devices, assignments point at healthy devices;
* **flow conservation** -- every completed flow record telescopes (segment
  durations sum to the end-to-end latency) even when requests were retried;
* **no stranded work** -- no driver sits parked while a pass would find
  work (a queued completion, a visible message, an unarmed backlog) and no
  doorbell ring is on its way: every work source rings;
* **control plane** -- at most one valid NIC lease per instance at any time,
  per-device fencing epochs only ever advance, no backend accepts a
  stale-epoch post, every failed device fails over exactly once (even across
  allocator leader crashes), and once a leader exists and the command queue
  has drained, every caught-up replica's state matches the canonical
  allocator state.

Faults are allowed to *slow* the system, never to wedge it or corrupt its
bookkeeping -- the final check therefore also asserts that no request is
still stuck in flight once the run has settled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["InvariantChecker", "InvariantVerdict", "Violation"]

#: Per-invariant cap on recorded violations (the verdict stays readable even
#: when a bug fires on every packet).
MAX_VIOLATIONS_PER_INVARIANT = 20


@dataclass
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str

    def __repr__(self) -> str:
        return f"[{self.time * 1e3:10.3f} ms] {self.invariant}: {self.detail}"


@dataclass
class InvariantVerdict:
    """Outcome of a chaos run's invariant evaluation."""

    ok: bool
    violations: List[Violation]
    checks: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"invariants: {'OK' if self.ok else 'VIOLATED'} "
                 f"({sum(self.checks.values())} checks)"]
        for name in sorted(self.checks):
            lines.append(f"  {name}: {self.checks[name]} checks")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation!r}")
        return "\n".join(lines)


class _RingTracker:
    """Outstanding-descriptor bookkeeping for one post/complete pair.

    Descriptors are tracked by object identity *holding the object itself*,
    so Python cannot recycle an id while it is outstanding (id-reuse would
    otherwise produce false duplicate-post reports).
    """

    def __init__(self, name: str, checker: "InvariantChecker"):
        self.name = name
        self.checker = checker
        self.outstanding: Dict[int, object] = {}
        self.posted = 0
        self.completed = 0

    def on_post(self, descriptor) -> None:
        self.posted += 1
        if id(descriptor) in self.outstanding:
            self.checker.violate(
                "completion-conservation",
                f"{self.name}: descriptor posted twice without completing",
            )
            return
        self.outstanding[id(descriptor)] = descriptor

    def on_complete(self, descriptor) -> None:
        self.completed += 1
        if self.outstanding.pop(id(descriptor), None) is None:
            self.checker.violate(
                "completion-conservation",
                f"{self.name}: completion for a descriptor that is not "
                f"outstanding (lost, duplicated, or never posted)",
            )


class InvariantChecker:
    """Installs invariant probes into a pod and evaluates them."""

    def __init__(self, pod, injector=None):
        self.pod = pod
        self.injector = injector
        self.violations: List[Violation] = []
        self.checks: Dict[str, int] = {}
        self._trackers: List[_RingTracker] = []
        self._task = None
        self._flow_checked = 0
        self._installed = False
        self._suppressed = 0
        self._epoch_seen: Dict[str, int] = {}
        self._stale_seen: Dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def violate(self, invariant: str, detail: str) -> None:
        count = sum(1 for v in self.violations if v.invariant == invariant)
        if count >= MAX_VIOLATIONS_PER_INVARIANT:
            self._suppressed += 1
            return
        self.violations.append(Violation(self.pod.sim.now, invariant, detail))

    def _checked(self, invariant: str, n: int = 1) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + n

    # -- probe installation ----------------------------------------------------

    def install(self) -> "InvariantChecker":
        """Wrap every NIC TX and SSD submission path with conservation probes.

        Must run after the pod topology is built (drivers own the callbacks
        we wrap).  Observation-only: wrapped calls delegate unchanged.
        """
        if self._installed:
            return self
        self._installed = True
        for nic in self.pod.nics.values():
            self._wrap_nic(nic)
        for backend in self.pod.storage_backends.values():
            self._wrap_ssd(backend.ssd)
        return self

    def _wrap_nic(self, nic) -> None:
        tracker = _RingTracker(f"{nic.name}.tx", self)
        self._trackers.append(tracker)
        original_post = nic.post_tx
        original_complete = nic.on_tx_complete

        def post_tx(descriptor):
            original_post(descriptor)       # raises without tracking on reject
            tracker.on_post(descriptor)

        def on_tx_complete(completion):
            tracker.on_complete(completion.descriptor)
            if original_complete is not None:
                original_complete(completion)

        nic.post_tx = post_tx
        nic.on_tx_complete = on_tx_complete

    def _wrap_ssd(self, ssd) -> None:
        tracker = _RingTracker(f"{ssd.name}.sq", self)
        self._trackers.append(tracker)
        original_submit = ssd.submit
        original_complete = ssd.on_completion

        def submit(cmd):
            original_submit(cmd)
            tracker.on_post(cmd)

        def on_completion(completion):
            tracker.on_complete(completion.descriptor)
            if original_complete is not None:
                original_complete(completion)

        ssd.submit = submit
        ssd.on_completion = on_completion

    # -- periodic evaluation ---------------------------------------------------

    def start(self, interval_s: float = 0.005) -> "InvariantChecker":
        """Re-evaluate the continuous invariants every ``interval_s``."""
        self.install()
        self._task = self.pod.sim.every(interval_s, self.check_now)
        return self

    def check_now(self) -> None:
        """Evaluate every invariant that must hold at *all* times."""
        pod = self.pod
        for nic in pod.nics.values():
            for ring in (nic.tx_ring, nic.rx_ring):
                self._checked("ring-bounds")
                if len(ring) > ring.depth:
                    self.violate("ring-bounds",
                                 f"{ring.name}: {len(ring)} > depth {ring.depth}")
        for backend in pod.storage_backends.values():
            self._checked("ring-bounds")
            if len(backend.ssd.sq) > backend.ssd.sq.depth:
                self.violate("ring-bounds",
                             f"{backend.ssd.sq.name}: over depth")
        for tracker in self._trackers:
            self._checked("completion-conservation")
            if tracker.completed > tracker.posted:
                self.violate(
                    "completion-conservation",
                    f"{tracker.name}: {tracker.completed} completions > "
                    f"{tracker.posted} posts",
                )
        for backend in pod.backends.values():
            self._checked("buffer-conservation")
            rx = backend.rx_pool
            if rx.available + rx.outstanding != rx.capacity:
                self.violate(
                    "buffer-conservation",
                    f"{backend.name}: rx pool {rx.available} free + "
                    f"{rx.outstanding} out != {rx.capacity}",
                )
        # Control plane: walk every pool group's own allocator (device
        # names and instance ips are unique across groups).
        now = pod.sim.now
        holders: Dict[tuple, int] = {}     # (ip, kind) -> valid leases
        for group in pod.groups:
            state = group.allocator.state
            for table in state.tables.values():
                for device in table.devices.values():
                    self._checked("allocator-accounting")
                    if device.allocated < -1e-9:
                        self.violate(
                            "allocator-accounting",
                            f"{device.name}: allocated {device.allocated} < 0")
            for (ip, dev), lease in state.leases._by_key.items():
                table = state.table_of.get(dev)
                if table is not None and lease.valid(now):
                    key = (ip, table.kind)
                    holders[key] = holders.get(key, 0) + 1
        self._checked("single-valid-holder")
        for (ip, kind), count in holders.items():
            if count > 1:
                self.violate(
                    "single-valid-holder",
                    f"instance {ip:#x} holds {count} valid {kind} leases",
                )
        self._checked("monotone-epochs")
        for group in pod.groups:
            for device_name, epoch in (
                    group.allocator.epochs.device_epoch.items()):
                last = self._epoch_seen.get(device_name, 0)
                if epoch < last:
                    self.violate("monotone-epochs",
                                 f"{device_name}: epoch went {last} -> {epoch}")
                else:
                    self._epoch_seen[device_name] = epoch
        for backend in (list(pod.backends.values())
                        + list(pod.storage_backends.values())):
            self._checked("no-stale-writes")
            seen = self._stale_seen.get(backend.name, 0)
            current = backend.stale_accepted
            if current > seen:
                self.violate(
                    "no-stale-writes",
                    f"{backend.name}: accepted {current - seen} stale-epoch "
                    f"posts",
                )
                self._stale_seen[backend.name] = current
        # No driver sits parked on work its next pass would find: every
        # work source rings (not counted in ``checks``: those are printed,
        # and pinned, in the chaos report).
        for detail in pod.stranded_work():
            self.violate("no-stranded-work", detail)
        self._check_shed_conservation()
        if pod.flows.enabled:
            records = pod.flows.records
            new = records[self._flow_checked:]
            self._flow_checked = len(records)
            self._checked("flow-conservation", len(new))
            for record in new:
                err = record.conservation_error_s()
                if err > 1e-9:
                    self.violate(
                        "flow-conservation",
                        f"{record.kind} flow: segments off by {err * 1e9:.1f} ns",
                    )

    def _check_shed_conservation(self) -> None:
        """Every submitted storage request is accounted for exactly once.

        With load shedding a request may end shed instead of completed, but
        the books must still balance:
        ``submitted == completed + in_flight + shed + gave_up`` where
        completed splits into ok and error and the give-ups are a subset of
        the error completions -- so the closed form checked here is
        ``submitted == completed_ok + completed_error + shed + pending``.

        With tenants registered the admission stage's ledger is exposed
        per tenant, and the same identity must hold for each row: a request
        charged to the wrong tenant would keep the aggregate intact while
        breaking isolation accounting.
        """
        for frontend in self.pod.storage_frontends.values():
            self._check_books(
                "shed-conservation", frontend.name,
                {key: getattr(frontend, key) for key in
                 ("submitted", "completed_ok", "completed_error", "shed")},
                len(frontend._pending))
            rows = frontend.tenant_stats()
            if rows:
                pending = Counter(state.get("tenant")
                                  for state in frontend._pending.values())
                for tenant, row in rows.items():
                    self._check_books("tenant-conservation",
                                      f"{frontend.name}/{tenant}", row,
                                      pending[tenant])

    def _check_books(self, invariant: str, label: str, books: dict,
                     in_flight: int) -> None:
        self._checked(invariant)
        accounted = (books["completed_ok"] + books["completed_error"]
                     + books["shed"] + in_flight)
        if books["submitted"] != accounted:
            self.violate(
                invariant,
                f"{label}: submitted {books['submitted']} != "
                f"{books['completed_ok']} ok + {books['completed_error']} err "
                f"+ {books['shed']} shed + {in_flight} in flight",
            )

    # -- final evaluation ------------------------------------------------------

    def finish(self) -> InvariantVerdict:
        """Cancel the periodic task, run the quiescence-only checks, verdict."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self.check_now()
        pod = self.pod

        # Nothing posted may still be outstanding once the run has settled:
        # a fault may delay a completion, never eat it.
        for tracker in self._trackers:
            self._checked("completion-conservation")
            if tracker.outstanding:
                self.violate(
                    "completion-conservation",
                    f"{tracker.name}: {len(tracker.outstanding)} descriptors "
                    f"never completed",
                )

        # No request may be wedged in flight (retries must converge).
        for frontend in pod.storage_frontends.values():
            self._checked("no-stuck-requests")
            if frontend._pending:
                self.violate(
                    "no-stuck-requests",
                    f"{frontend.name}: {len(frontend._pending)} storage "
                    f"requests still in flight",
                )
        for backend in pod.backends.values():
            self._checked("no-stuck-requests")
            if backend._tx_pending:
                self.violate(
                    "no-stuck-requests",
                    f"{backend.name}: {len(backend._tx_pending)} TX "
                    f"descriptors still queued",
                )
        # ... nor parked behind a full ring, at any driver (the count of
        # checks stays one per storage frontend and net backend: it is
        # printed, and pinned, in the chaos report).
        for driver in pod._all_drivers():
            if driver._backlog:
                self.violate(
                    "no-stuck-requests",
                    f"{driver.name}: {len(driver._backlog)} messages still "
                    f"parked behind a full ring",
                )

        # ... nor stranded at a driver that was parked when the pod stopped.
        for detail in pod.stranded:
            self.violate("no-stranded-work", detail)

        for group in pod.groups:
            self._finish_control_plane(group.allocator)

        if pod.flows.enabled:
            self._checked("flow-conservation")
            bad = pod.flows.check_conservation()
            if bad:
                self.violate("flow-conservation",
                             f"{len(bad)} records violate telescoping")

        if self._suppressed:
            self.violations.append(Violation(
                pod.sim.now, "meta",
                f"{self._suppressed} further violations suppressed"))
        return InvariantVerdict(ok=not self.violations,
                                violations=list(self.violations),
                                checks=dict(self.checks))

    def _finish_control_plane(self, allocator) -> None:
        """End-of-run checks of one pool group's allocator, against that
        group's own leader and Raft nodes (groups never share a log, so
        their applied indices are unrelated)."""
        for table in allocator.tables.values():
            for device in table.devices.values():
                self._checked("allocator-accounting")
                if device.failed and allocator.leases.leases_on(device.name):
                    self.violate("allocator-accounting",
                                 f"{device.name}: failed but still leased")
            for ip, name in table.assignments.items():
                self._checked("allocator-accounting")
                device = table.devices.get(name)
                if device is None or device.failed:
                    self.violate("allocator-accounting",
                                 f"instance {ip:#x} assigned to "
                                 f"failed/unknown device {name}")

        # Exactly-once recovery: every failover command applied exactly once
        # per device, no matter how many leaders proposed it.
        for nic, count in allocator.failover_log.items():
            self._checked("failover-exactly-once")
            if count != 1:
                self.violate("failover-exactly-once",
                             f"{nic}: failover applied {count} times")

        if not allocator.replicated:
            return
        leader = allocator.leader_node()
        self._checked("control-quiesce")
        if leader is None:
            return
        if allocator.pending_commands:
            self.violate(
                "control-quiesce",
                f"{allocator.pending_commands} commands still pending "
                f"with a live leader",
            )
            return
        # Failovers == failed devices, once everything committed.
        for name, table in allocator.state.table_of.items():
            if table.devices[name].failed:
                self._checked("failover-exactly-once")
                if allocator.failover_log.get(name, 0) != 1:
                    self.violate(
                        "failover-exactly-once",
                        f"{name}: failed but failover ran "
                        f"{allocator.failover_log.get(name, 0)} times",
                    )
        canonical = allocator.state.signature()
        for node in self.pod.raft_nodes:
            replica = allocator.replicas.get(node.node_id)
            if (replica is None or not node.alive
                    or node.last_applied != leader.last_applied):
                continue   # another group's, crashed, or still catching up
            self._checked("replica-convergence")
            if replica.state.signature() != canonical:
                self.violate(
                    "replica-convergence",
                    f"{node.node_id}: replica state diverges from "
                    f"the canonical allocator state",
                )
