"""Per-tenant weighted-fair queueing for the multi-tenant serving layer.

A single :class:`~repro.overload.admission.AdmissionQueue` protects a
frontend from aggregate overload but cannot isolate tenants: one noisy
neighbour fills the shared queue and every tenant's requests sit behind its
backlog.  :class:`WeightedFairScheduler` is the scheduler of every armed
:class:`~repro.overload.stage.AdmissionStage`.  With no tenant registered
all traffic shares the ``"-"`` lane -- one ``AdmissionQueue``, so the
scheduler *is* that single queue (pinned by a property test against
``AdmissionQueue`` as the reference); registering tenants extends it:

* each registered tenant gets its **own** :class:`AdmissionQueue` lane
  (depth cap + CoDel front-drop apply per tenant, so a noisy neighbour
  sheds *its own* excess, never a well-behaved victim's);
* dequeue order is **virtual-time weighted-fair** (start-time fair
  queueing with unit request cost): each tenant carries a virtual tag that
  advances by ``1/weight`` per served request, the backlogged tenant with
  the smallest tag is served next, and a tenant going from idle to
  backlogged jumps its tag forward to the scheduler's virtual time -- so
  fairness is enforced over backlogged periods only and idle tenants bank
  no credit;
* a tenant may additionally hold a :class:`TokenBucket` **rate guarantee**:
  requests covered by guaranteed tokens are placed in a shared
  strict-priority reserved lane that is always served before the
  weighted-fair lanes.  The bucket bounds that lane's arrival rate, so the
  guarantee can never starve excess-sharing -- it is the classic
  "guaranteed rate + weighted excess" two-tier discipline.

Everything is deterministic: ties on virtual tags break on the tenant
name, timestamps come from the simulator, and no RNG is involved, so shed
sequences replay byte-identically under a fixed seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .admission import AdmissionQueue

__all__ = ["TokenBucket", "TenantSpec", "WeightedFairScheduler"]


class TokenBucket:
    """Deterministic token bucket (tokens accrue with simulated time)."""

    __slots__ = ("rate", "burst", "tokens", "_last", "granted", "denied")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = 0.0
        self.granted = 0
        self.denied = 0

    def take(self, now: float, n: float = 1.0) -> bool:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= n:
            self.tokens -= n
            self.granted += 1
            return True
        self.denied += 1
        return False


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's scheduling contract at a frontend.

    ``weight`` sets the share of excess capacity; ``guarantee_rate`` (> 0
    to enable) reserves that many requests/s through the strict-priority
    lane, with ``guarantee_burst`` tokens of slack for bursty arrivals.
    """

    weight: float = 1.0
    guarantee_rate: float = 0.0
    guarantee_burst: float = 16.0

    def validate(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.guarantee_rate < 0 or self.guarantee_burst <= 0:
            raise ValueError("tenant guarantee must be non-negative")


class _Tenant:
    __slots__ = ("name", "weight", "queue", "tag", "bucket",
                 "pushed", "served", "served_reserved")

    def __init__(self, name: str, spec: TenantSpec, depth: int,
                 target_s: float, interval_s: float):
        spec.validate()
        self.name = name
        self.weight = spec.weight
        self.queue = AdmissionQueue(depth, target_s, interval_s)
        self.tag = 0.0
        self.bucket = (TokenBucket(spec.guarantee_rate, spec.guarantee_burst)
                       if spec.guarantee_rate > 0 else None)
        self.pushed = 0
        self.served = 0
        self.served_reserved = 0


class WeightedFairScheduler:
    """Virtual-time WFQ over per-tenant admission queues.

    Same interface as :class:`AdmissionQueue` -- ``push`` takes an extra
    ``tenant`` tag and ``pop`` picks the next lane by virtual time -- with
    the same conservation contract per lane:
    ``pushed == admitted + shed_full`` and
    ``admitted == served + shed_sojourn + queued``.
    """

    def __init__(self, depth: int = 256, target_s: float = 0.005,
                 interval_s: float = 0.025,
                 tenants: Optional[Dict[str, TenantSpec]] = None):
        self.depth = depth
        self.target_s = target_s
        self.interval_s = interval_s
        self._tenants: Dict[str, _Tenant] = {}
        self._vtime = 0.0
        # The strict-priority guaranteed lane, shared across tenants and
        # served FIFO; bounded by ``depth`` like any other lane.
        self._reserved: deque = deque()     # (tenant, item)
        for name, spec in (tenants or {}).items():
            self.add_tenant(name, spec)

    def add_tenant(self, name: str, spec: TenantSpec) -> None:
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        self._tenants[name] = _Tenant(name, spec, self.depth,
                                      self.target_s, self.interval_s)

    def _tenant(self, name: Optional[str]) -> _Tenant:
        # Untagged and unregistered traffic shares one weight-1 "-" lane.
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants.get("-")
            if tenant is None:
                tenant = self._tenants["-"] = _Tenant(
                    "-", TenantSpec(), self.depth, self.target_s,
                    self.interval_s)
        return tenant

    def __len__(self) -> int:
        return len(self._reserved) + sum(len(t.queue)
                                         for t in self._tenants.values())

    # -- AdmissionQueue-compatible aggregate counters ----------------------

    @property
    def admitted(self) -> int:
        return (sum(t.queue.admitted for t in self._tenants.values())
                + sum(t.served_reserved for t in self._tenants.values())
                + len(self._reserved))

    @property
    def shed_full(self) -> int:
        return sum(t.queue.shed_full for t in self._tenants.values())

    @property
    def shed_sojourn(self) -> int:
        return sum(t.queue.shed_sojourn for t in self._tenants.values())

    @property
    def saturation(self) -> float:
        """Worst per-lane fullness in [0, 1] (the brownout signal)."""
        worst = len(self._reserved) / self.depth
        for tenant in self._tenants.values():
            fullness = len(tenant.queue) / self.depth
            if fullness > worst:
                worst = fullness
        return worst

    # -- scheduling --------------------------------------------------------

    def push(self, now: float, item: Any, tenant: Optional[str] = None) -> bool:
        """Admit ``item`` for ``tenant``; False once its lane is full."""
        state = self._tenant(tenant)
        state.pushed += 1
        if (state.bucket is not None
                and len(self._reserved) < self.depth
                and state.bucket.take(now)):
            self._reserved.append((state, item))
            return True
        if not len(state.queue):
            # Idle -> backlogged: no credit for idle time (SFQ restart).
            if state.tag < self._vtime:
                state.tag = self._vtime
        return state.queue.push(now, item)

    def pop(self, now: float) -> Tuple[Optional[Any], List[Any]]:
        """Next request by virtual time; CoDel drops ride along as shed."""
        shed: List[Any] = []
        if self._reserved:
            state, item = self._reserved.popleft()
            state.served_reserved += 1
            return item, shed
        while True:
            best = None
            for state in self._tenants.values():
                if len(state.queue) and (
                        best is None
                        or (state.tag, state.name) < (best.tag, best.name)):
                    best = state
            if best is None:
                return None, shed
            item, dropped = best.queue.pop(now)
            shed.extend(dropped)
            if item is None:
                continue        # CoDel drained that lane; pick again
            self._vtime = best.tag
            best.tag += 1.0 / best.weight
            best.served += 1
            return item, shed

    # -- introspection -----------------------------------------------------

    def per_tenant(self) -> Dict[str, dict]:
        """Deterministic per-tenant scheduling counters."""
        out = {}
        reserved_queued: Dict[str, int] = {}
        for state, _item in self._reserved:
            reserved_queued[state.name] = reserved_queued.get(state.name, 0) + 1
        for name in sorted(self._tenants):
            tenant = self._tenants[name]
            out[name] = {
                "weight": tenant.weight,
                "pushed": tenant.pushed,
                "admitted": (tenant.queue.admitted + tenant.served_reserved
                             + reserved_queued.get(name, 0)),
                "served": tenant.served + tenant.served_reserved,
                "served_reserved": tenant.served_reserved,
                "shed_full": tenant.queue.shed_full,
                "shed_sojourn": tenant.queue.shed_sojourn,
                "queued": (len(tenant.queue)
                           + reserved_queued.get(name, 0)),
            }
        return out
