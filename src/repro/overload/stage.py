"""The admission stage: everything an armed driver needs, in one object.

A driver is either *unarmed* (``driver._stage is None``: the paper's
datapath) or *armed* (it holds one :class:`AdmissionStage`).  The stage
owns the scheduler, the launch window, the retry budget, the per-device
breakers, the brownout level and the only shed / retry-denied / give-up
ledger.  The scheduler is always a
:class:`WeightedFairScheduler`: with no tenant registered every request
lands on its ``"-"`` lane, which *is* one ``AdmissionQueue``, and
registering tenants only adds lanes to the live scheduler.  DESIGN.md §3g
has the conservation contract and the reason there are two paths, not one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .breaker import CLOSED, CircuitBreaker
from .budget import RetryBudget
from .wfq import TenantSpec, WeightedFairScheduler

__all__ = ["AdmissionStage", "StageView", "LEDGER_KEYS"]

#: One ledger row.  ``shed`` is the sum of the four ``shed_*`` reasons.
LEDGER_KEYS = (
    "submitted", "completed_ok", "completed_error", "shed",
    "shed_queue_full", "shed_sojourn", "shed_breaker", "shed_brownout",
    "gave_up", "retries", "retry_budget_denied",
)


class AdmissionStage:
    """Scheduler + window + retry budget + breakers + brownout + ledger."""

    def __init__(self, cfg, rng_factory, name: str,
                 tenants: Dict[str, TenantSpec]):
        self.cfg = cfg
        self.name = name
        self.queue = WeightedFairScheduler(
            cfg.admission_depth,
            cfg.codel_target_ms * 1e-3,
            cfg.codel_interval_ms * 1e-3)
        self.launched = 0
        self.budget = RetryBudget(cfg.retry_budget_ratio,
                                  cfg.retry_budget_min,
                                  cfg.retry_budget_cap)
        # Dedicated substreams only: arming a stage never touches a
        # workload RNG stream, so it cannot perturb arrival processes.
        self._rng = rng_factory
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.brownout_level = 0
        #: optional ``() -> float`` probe of congestion *behind* the
        #: scheduler (the net frontend's IPC rings), folded into saturation
        self.downstream: Optional[Callable[[], float]] = None
        self.tenants: Dict[str, TenantSpec] = {}
        self._rows: Dict[Optional[str], Dict[str, int]] = {}
        self.register(tenants)

    def register(self, tenants: Dict[str, TenantSpec]) -> None:
        """Give each new tenant a lane in the live scheduler (queued work
        stays where it is) and a ledger row; known names are skipped."""
        for name, spec in tenants.items():
            if name not in self.tenants:
                self.queue.add_tenant(name, spec)
                self.tenants[name] = spec
                self._row(name)

    # -- the ledger ----------------------------------------------------------

    def _row(self, tenant: Optional[str]) -> Dict[str, int]:
        row = self._rows.get(tenant)
        if row is None:
            row = self._rows[tenant] = dict.fromkeys(LEDGER_KEYS, 0)
        return row

    def count(self, tenant: Optional[str], key: str) -> None:
        """Charge one ``key`` to ``tenant``'s row (every ledger bump)."""
        row = self._row(tenant)
        row[key] += 1
        if key.startswith("shed_"):
            row["shed"] += 1

    def total(self, key: str) -> int:
        return sum(row[key] for row in self._rows.values())

    def tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant rows; empty until a tenant is registered."""
        if not self.tenants:
            return {}
        return {name: dict(row)
                for name, row in sorted(self._rows.items(),
                                        key=lambda kv: str(kv[0]))}

    # -- breakers, saturation --------------------------------------------------

    def breaker(self, device: str) -> CircuitBreaker:
        breaker = self.breakers.get(device)
        if breaker is None:
            cfg = self.cfg
            breaker = self.breakers[device] = CircuitBreaker(
                cfg.breaker_failure_threshold,
                cfg.breaker_open_ms * 1e-3,
                cfg.breaker_probe_jitter_ms * 1e-3,
                rng=self._rng.get(f"overload/{self.name}/breaker/{device}"),
                name=device)
        return breaker

    @property
    def breaker_trips(self) -> int:
        return sum(b.trips for b in self.breakers.values())

    @property
    def breakers_open(self) -> int:
        return sum(1 for b in self.breakers.values() if b.state != CLOSED)

    @property
    def admission_saturation(self) -> float:
        """Worst fullness in [0, 1] the brownout controller should see."""
        worst = self.queue.saturation
        if self.downstream is not None:
            worst = max(worst, self.downstream())
        return worst


class StageView:
    """Read-only driver attribute backed by the driver's stage.

    ``shed = StageView("shed")`` on a driver class reads the ledger total
    of that key; any other name (``breaker_trips``, ``brownout_level``)
    reads the stage attribute.  Either way 0 while unarmed, so the legacy
    counter names keep working for the metrics registry, reports and tests
    without a second set of books.
    """

    def __init__(self, name: str):
        self.name = name

    def __get__(self, driver, owner=None):
        if driver is None:
            return self
        stage = driver._stage
        if stage is None:
            return 0
        if self.name in LEDGER_KEYS:
            return stage.total(self.name)
        return getattr(stage, self.name)
